package xkernel_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xkernel"
	"xkernel/internal/psync"
	"xkernel/internal/rpc/auth"
)

// lrpcSpec is the paper's Figure 3(a) configuration.
const lrpcSpec = `
# SELECT-CHANNEL-FRAGMENT-VIP (Figure 3a)
vip      eth ip
fragment vip
channel  fragment
select   channel
`

// bypassSpec is the paper's Figure 3(b) configuration.
const bypassSpec = `
vipaddr  eth ip
fragment vipaddr
vipsize  fragment vipaddr
channel  vipsize
select   channel
`

func pairWith(t *testing.T, spec string) (cli, srv *xkernel.Kernel) {
	t.Helper()
	client, server, _, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Compose(spec); err != nil {
		t.Fatal(err)
	}
	if err := server.Compose(spec); err != nil {
		t.Fatal(err)
	}
	return client, server
}

func TestComposeLayeredRPC(t *testing.T) {
	for _, spec := range []string{lrpcSpec, bypassSpec} {
		client, server := pairWith(t, spec)

		ssel, err := server.Select("select")
		if err != nil {
			t.Fatal(err)
		}
		ssel.Register(1, func(_ uint16, args *xkernel.Msg) (*xkernel.Msg, error) {
			return xkernel.NewMsg(args.Bytes()), nil
		})
		csel, err := client.Select("select")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := csel.Open(xkernel.NewApp("app", nil),
			&xkernel.Participants{Remote: xkernel.NewParticipant(server.Addr())})
		if err != nil {
			t.Fatal(err)
		}
		payload := xkernel.MakeData(5000)
		got, err := sess.(interface {
			CallBytes(uint16, []byte) ([]byte, error)
		}).CallBytes(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("echo mismatch")
		}
	}
}

func TestComposeMonolithicRPC(t *testing.T) {
	spec := "vip eth ip\nmrpc vip\n"
	client, server := pairWith(t, spec)
	srpc, err := server.MRPC("mrpc")
	if err != nil {
		t.Fatal(err)
	}
	srpc.Register(9, func(_ uint16, args *xkernel.Msg) (*xkernel.Msg, error) {
		return xkernel.NewMsg([]byte("pong")), nil
	})
	crpc, err := client.MRPC("mrpc")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := crpc.Open(xkernel.NewApp("app", nil),
		&xkernel.Participants{Remote: xkernel.NewParticipant(server.Addr())})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.(interface {
		CallBytes(uint16, []byte) ([]byte, error)
	}).CallBytes(9, []byte("ping"))
	if err != nil || string(got) != "pong" {
		t.Fatalf("call = %q, %v", got, err)
	}
}

func TestComposeSunRPCWithAuth(t *testing.T) {
	spec := `
vip       eth ip
fragment  vip
reqrep    fragment
creds:auth reqrep
sunselect creds
`
	client, server, _, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.AddMechanism("creds", &auth.Sys{Machine: "cli", UID: 7})
	server.AddMechanism("creds", &auth.Sys{})
	if err := client.Compose(spec); err != nil {
		t.Fatal(err)
	}
	if err := server.Compose(spec); err != nil {
		t.Fatal(err)
	}
	ss, err := server.SunSelect("sunselect")
	if err != nil {
		t.Fatal(err)
	}
	ss.Register(100, 1, 1, func(args *xkernel.Msg) (*xkernel.Msg, error) {
		id, _ := args.Attr(auth.IdentityAttr)
		if id.(auth.Identity).UID != 7 {
			t.Error("identity lost in composition")
		}
		return xkernel.EmptyMsg(), nil
	})
	cs, err := client.SunSelect("sunselect")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cs.Open(xkernel.NewApp("app", nil),
		&xkernel.Participants{Remote: xkernel.NewParticipant(server.Addr())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.(interface {
		Call(uint32, uint32, uint32, *xkernel.Msg) (*xkernel.Msg, error)
	}).Call(100, 1, 1, xkernel.EmptyMsg()); err != nil {
		t.Fatal(err)
	}
}

func TestComposeErrors(t *testing.T) {
	client, _, _, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"unknown lower":  "fragment nosuch\n",
		"unknown kind":   "foo:quantum eth\n",
		"wrong arity":    "vip eth\n",
		"duplicate name": "vip eth ip\nvip eth ip\n",
		"missing auth":   "frag2:fragment ip\nx:auth frag2\n",
	}
	for what, spec := range cases {
		if err := client.Compose(spec); err == nil {
			t.Fatalf("%s: accepted %q", what, spec)
		}
	}
	// Redefining a builtin is also rejected.
	if err := client.Compose("eth:vip eth ip\n"); err == nil {
		t.Fatal("builtin shadowing accepted")
	}
}

func TestGraphPrinting(t *testing.T) {
	client, _ := pairWith(t, lrpcSpec)
	g := client.Graph()
	for _, want := range []string{"kernel client", "select", "channel", "fragment", "vip", "-> eth, ip"} {
		if !strings.Contains(g, want) {
			t.Fatalf("graph missing %q:\n%s", want, g)
		}
	}
	names := client.Instances()
	if len(names) < 9 { // 5 builtins + 4 composed
		t.Fatalf("instances = %v", names)
	}
}

func TestTypedAccessorErrors(t *testing.T) {
	client, _ := pairWith(t, lrpcSpec)
	if _, err := client.Select("vip"); err == nil {
		t.Fatal("Select accepted a VIP instance")
	}
	if _, err := client.Select("absent"); err == nil {
		t.Fatal("Select accepted a missing instance")
	}
	if _, err := client.MRPC("select"); err == nil {
		t.Fatal("MRPC accepted a SELECT instance")
	}
	if _, err := client.Psync("select"); err == nil {
		t.Fatal("Psync accepted a SELECT instance")
	}
	if _, err := client.SunSelect("select"); err == nil {
		t.Fatal("SunSelect accepted a SELECT instance")
	}
}

func TestGetAndMustGet(t *testing.T) {
	client, _ := pairWith(t, lrpcSpec)
	if _, ok := client.Get("fragment"); !ok {
		t.Fatal("Get missed a composed instance")
	}
	if _, ok := client.Get("nope"); ok {
		t.Fatal("Get found a ghost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on a missing instance should panic")
		}
	}()
	client.MustGet("nope")
}

func TestPsyncComposition(t *testing.T) {
	spec := "vip eth ip\nfragment vip\npsync fragment\n"
	a, b := pairWith(t, spec)
	pa, err := a.Psync("psync")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Psync("psync")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []xkernel.IPAddr{a.Addr(), b.Addr()}
	var got []byte
	convB, err := pb.Join(1, hosts, func(m psync.Message) { got = m.Data })
	if err != nil {
		t.Fatal(err)
	}
	convA, err := pa.Join(1, hosts, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := xkernel.MakeData(4000)
	if _, err := convA.Send(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("psync delivered %d bytes", len(got))
	}
	if convB.Size() != 1 {
		t.Fatalf("graph size = %d", convB.Size())
	}
}

func TestComposeNRPCOverEthmap(t *testing.T) {
	spec := "wire:ethmap eth\nnrpc wire\n"
	client, server := pairWith(t, spec)
	srv, err := server.NRPC("nrpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(3, func(_ uint16, args *xkernel.Msg) (*xkernel.Msg, error) {
		return xkernel.NewMsg(args.Bytes()), nil
	})
	cli, err := client.NRPC("nrpc")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cli.OpenSession(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	reply, err := sess.Call(3, xkernel.NewMsg([]byte("probe me")))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Bytes()) != "probe me" {
		t.Fatalf("reply = %q", reply.Bytes())
	}
	if _, err := client.NRPC("wire"); err == nil {
		t.Fatal("NRPC accepted the ethmap instance")
	}
}

func TestEnableVIPDiscovery(t *testing.T) {
	spec := "vip eth ip\nmrpc vip\n"
	client, server := pairWith(t, spec)

	const rpcProto = xkernel.ProtoNum(201) // mrpc's default lower number region
	_, cann, err := client.EnableVIPDiscovery("vip", []xkernel.ProtoNum{rpcProto}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cdir, sann, err := server.EnableVIPDiscovery("vip", []xkernel.ProtoNum{rpcProto}, 0)
	_ = cdir
	if err != nil {
		t.Fatal(err)
	}
	// Announce both ways; each side's directory learns the other.
	if err := cann.Announce(); err != nil {
		t.Fatal(err)
	}
	if err := sann.Announce(); err != nil {
		t.Fatal(err)
	}
	// Misconfigured names fail loudly.
	if _, _, err := client.EnableVIPDiscovery("nosuch", nil, 0); err == nil {
		t.Fatal("discovery on a missing instance accepted")
	}
	if _, _, err := client.EnableVIPDiscovery("mrpc", nil, 0); err == nil {
		t.Fatal("discovery on a non-VIP instance accepted")
	}
}

func TestLoadFacade(t *testing.T) {
	// The load engine through the public face: one quick cell.
	lvl, err := xkernel.LoadRunLevel(xkernel.StackMRPCVIP, 2, xkernel.LoadOptions{
		Duration:    50 * time.Millisecond,
		WarmupCalls: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lvl.Calls == 0 || lvl.Errors != 0 {
		t.Fatalf("load level: %+v", lvl)
	}
}
