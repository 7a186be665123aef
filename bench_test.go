// Benchmarks over the composed stacks. Timings and per-layer costs come
// from the benchmark (go run ./benchmark); these are profiling entry
// points, run with
//
//	go test -run '^$' -bench RoundTrip -cpuprofile cpu.out
//
// and never the source of a figure.
package xkernel_test

import (
	"fmt"
	"testing"

	"xkernel"
	"xkernel/internal/bench"
	"xkernel/internal/msg"
	"xkernel/internal/psync"
	"xkernel/internal/sim"
)

// BenchmarkRoundTrip runs one complete round trip per iteration through
// each measured stack over the in-memory ethernet: a null call, and a
// 16 KB request with a null reply where the stack's endpoint takes one.
// It is a profiling entry point, never a figure: the benchmark is the one
// instrument that times the stack.
func BenchmarkRoundTrip(b *testing.B) {
	for _, stack := range bench.Stacks() {
		for _, c := range []struct {
			name string
			size int
		}{{"0B", 0}, {"16KB", 16 * 1024}} {
			b.Run(string(stack)+"/"+c.name, func(b *testing.B) {
				roundTrips(b, stack, c.size)
			})
		}
	}
}

// roundTrips builds a fresh testbed for the stack and times
// RoundTrip(payload) per iteration.
func roundTrips(b *testing.B, stack bench.Stack, payloadSize int) {
	tb, err := bench.Build(stack, sim.Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	if payloadSize > tb.MaxMsg {
		b.Skipf("%s takes at most %d bytes", stack, tb.MaxMsg)
	}
	var payload []byte
	if payloadSize > 0 {
		payload = msg.MakeData(payloadSize)
	}
	// Warm the session caches: steady state is what a profile should show.
	if err := tb.End.RoundTrip(payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.End.RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// X3: §5 mix-and-match — Sun RPC over its compositions.
func BenchmarkSunRPC(b *testing.B) {
	for _, comp := range []struct {
		name string
		spec string
	}{
		{"reqrep-fragment", "vip eth ip\nfragment vip\nreqrep fragment\nsunselect reqrep\n"},
		{"channel-fragment", "vip eth ip\nfragment vip\nchannel fragment\nsunselect channel\n"},
		{"reqrep-vip", "vip eth ip\nreqrep vip\nsunselect reqrep\n"},
	} {
		for _, size := range []int{0, 8 * 1024} {
			b.Run(fmt.Sprintf("%s/%dB", comp.name, size), func(b *testing.B) {
				benchSunRPC(b, comp.spec, size)
			})
		}
	}
}

func benchSunRPC(b *testing.B, spec string, size int) {
	client, server, _, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []*xkernel.Kernel{client, server} {
		if err := k.Compose(spec); err != nil {
			b.Fatal(err)
		}
	}
	ssel, err := server.SunSelect("sunselect")
	if err != nil {
		b.Fatal(err)
	}
	ssel.Register(1, 1, 1, func(*xkernel.Msg) (*xkernel.Msg, error) {
		return xkernel.EmptyMsg(), nil
	})
	csel, err := client.SunSelect("sunselect")
	if err != nil {
		b.Fatal(err)
	}
	sess, err := csel.Open(xkernel.NewApp("app", nil),
		&xkernel.Participants{Remote: xkernel.NewParticipant(server.Addr())})
	if err != nil {
		b.Fatal(err)
	}
	s := sess.(*xkernel.SunSelectSession)
	payload := msg.MakeData(size)
	if _, err := s.CallBytes(1, 1, 1, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CallBytes(1, 1, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// X5: Psync reusing FRAGMENT for 16k messages (§3.2, §5).
func BenchmarkPsyncOverFragment(b *testing.B) {
	for _, size := range []int{64, 16 * 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchPsync(b, size)
		})
	}
}

func benchPsync(b *testing.B, size int) {
	spec := "vip eth ip\nfragment vip\npsync fragment\n"
	a, peer, _, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []*xkernel.Kernel{a, peer} {
		if err := k.Compose(spec); err != nil {
			b.Fatal(err)
		}
	}
	pa, err := a.Psync("psync")
	if err != nil {
		b.Fatal(err)
	}
	pb, err := peer.Psync("psync")
	if err != nil {
		b.Fatal(err)
	}
	hosts := []xkernel.IPAddr{a.Addr(), peer.Addr()}
	delivered := 0
	if _, err := pb.Join(77, hosts, func(psync.Message) { delivered++ }); err != nil {
		b.Fatal(err)
	}
	conv, err := pa.Join(77, hosts, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := msg.MakeData(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// §5 postscript: TCP rebuilt without IP-header dependencies composes
// over IP and VIP alike; the benchmark streams data through both.
func BenchmarkTCPStream(b *testing.B) {
	for _, lower := range []string{"ip", "vip"} {
		b.Run(lower, func(b *testing.B) { benchTCP(b, lower) })
	}
}

func benchTCP(b *testing.B, lower string) {
	client, server, _, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	spec := "tcp ip\n"
	if lower == "vip" {
		spec = "vip eth ip\ntcp vip\n"
	}
	for _, k := range []*xkernel.Kernel{client, server} {
		if err := k.Compose(spec); err != nil {
			b.Fatal(err)
		}
	}
	stp, err := server.TCP("tcp")
	if err != nil {
		b.Fatal(err)
	}
	received := 0
	app := xkernel.NewApp("sink", func(s xkernel.Session, m *xkernel.Msg) error {
		received += m.Len()
		return nil
	})
	if err := stp.OpenEnable(app, xkernel.LocalOnly(xkernel.NewParticipant(xkernel.TCPPort(80)))); err != nil {
		b.Fatal(err)
	}
	ctp, err := client.TCP("tcp")
	if err != nil {
		b.Fatal(err)
	}
	sess, err := ctp.Open(xkernel.NewApp("src", nil), xkernel.NewParticipants(
		xkernel.NewParticipant(xkernel.TCPPort(40000)),
		xkernel.NewParticipant(server.Addr(), xkernel.TCPPort(80)),
	))
	if err != nil {
		b.Fatal(err)
	}
	conn := sess.(*xkernel.TCPConn)
	chunk := msg.MakeData(8 * 1024)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Push(xkernel.NewMsg(chunk)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if received != b.N*len(chunk) {
		b.Fatalf("received %d of %d bytes", received, b.N*len(chunk))
	}
}
