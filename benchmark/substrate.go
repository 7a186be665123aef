package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	"xkernel/internal/wire/udp"
	"xkernel/internal/xk"
)

const (
	subBatches = 15
	hdrBytes   = 32   // a typical protocol header
	fragBytes  = 1400 // a fragment that fits one frame
)

// substrate times the paper's three tools (message, map, event) and the
// ledger and wire beneath the stacks by calling their public functions
// directly, with no protocol above them. The inputs are fixed, not
// seeded: these price the tools, not a workload. batches is how many
// batches each median is taken over.
func substrate(v map[string]float64, batches int) {
	hdr := make([]byte, hdrBytes)
	small, page, bulk := msg.MakeData(64), msg.MakeData(4096), msg.MakeData(16*1024)

	// What a null call does to a message: made once, a header pushed
	// per layer going down, popped per layer coming up.
	v["msg.new_push_pop_ns"], v["msg.new_push_pop_allocs"] = timeOp(batches, 20000, func() {
		m := msg.New(small)
		for i := 0; i < 4; i++ {
			m.MustPush(hdr)
		}
		for i := 0; i < 4; i++ {
			if _, err := m.Pop(hdrBytes); err != nil {
				panic(err)
			}
		}
	})
	// What FRAGMENT does to a 16 KB message, both directions.
	v["msg.split_join_16k_ns"], v["msg.split_join_16k_allocs"] = timeOp(batches, 2000, func() {
		frags, err := msg.New(bulk).Split(fragBytes, msg.DefaultLeader)
		if err != nil {
			panic(err)
		}
		whole := msg.Empty()
		for _, f := range frags {
			whole.Join(f)
		}
	})
	held := msg.New(small)
	held.MustPush(hdr)
	held.MustPush(hdr)
	v["msg.clone_ns"], _ = timeOp(batches, 20000, func() { held.Clone() })
	flat := msg.New(page)
	flat.MustPush(hdr)
	v["msg.bytes_4k_ns"], _ = timeOp(batches, 5000, func() { flat.Bytes() })
	_, bare := timeOp(batches, 5000, func() { msg.New(small) })
	_, tagged := timeOp(batches, 5000, func() { msg.New(small).SetAttr(1, uint32(7)) })
	v["msg.setattr_allocs"] = tagged - bare

	// Demux: 64 sessions bound, keys the size of an address pair.
	table := pmap.New(64)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = slices.Clone(new(pmap.Key).U32(uint32(i)).U32(0x0a000002).Built())
		table.Bind(keys[i], i)
	}
	spare := new(pmap.Key).U32(1 << 20).U32(0x0a000002).Built()
	var n int
	v["pmap.resolve_ns"], _ = timeOp(batches, 50000, func() {
		table.Resolve(keys[n&63])
		n++
	})
	v["pmap.bind_unbind_ns"], _ = timeOp(batches, 20000, func() {
		table.Bind(spare, n)
		table.Unbind(spare)
	})
	// The same lookup from every processor at once; per-goroutine cost,
	// so perfect sharding reads the same as pmap.resolve_ns.
	const each = 20000
	procs := runtime.GOMAXPROCS(0)
	perBurst, _ := timeOp(batches, 10, func() {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					table.Resolve(keys[(g+i)&63])
				}
			}()
		}
		wg.Wait()
	})
	v["pmap.resolve_nc_ns"] = perBurst / each

	// CHANNEL arms a retransmit timer per call and cancels it when the
	// reply arrives; this is that pair on the real clock.
	clock := event.Real()
	v["event.schedule_cancel_ns"], v["event.schedule_cancel_allocs"] = timeOp(batches, 20000, func() {
		clock.Schedule(time.Second, func() {}).Cancel()
	})

	// The at-most-once ledger: record the reply, look it up on a
	// duplicate; and the blob a three-frame 4 KB reply is cached as.
	led := ledger.NewMem(ledger.MemOptions{})
	key := ledger.Key{Peer: xk.IP(10, 0, 0, 1), Proto: 7, Channel: 3}
	var seq uint32
	v["ledger.mem_record_lookup_ns"], v["ledger.mem_record_lookup_allocs"] = timeOp(batches, 20000, func() {
		seq++
		if err := led.Record(key, ledger.Entry{ClientBoot: 1, Seq: seq, Reply: small}); err != nil {
			panic(err)
		}
		led.Lookup(key)
	})
	frames := [][]byte{page[:fragBytes], page[fragBytes : 2*fragBytes], page[2*fragBytes:]}
	v["ledger.encode_frames_4k_ns"], _ = timeOp(batches, 5000, func() { ledger.EncodeFrames(frames...) })

	// The floor under every stack: one frame out and one back on the
	// raw link, no protocol at either end. In memory, then over
	// loopback sockets for scale (reported, never gated: socket round
	// trips swing tens of percent from run to run).
	v["sim.frame_rtt_ns"], v["sim.frame_rtt_allocs"] = 0, 0
	v["wire.udp.frame_rtt_us_p50"], v["wire.udp.frame_rtt_allocs"] = 0, 0
	if err := simFrameRTT(v, batches); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: sim frame round trip not measured:", err)
	}
	if err := udpFrameRTT(v); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: udp frame round trip not measured:", err)
	}
}

var (
	nearAddr = xk.EthAddr{2, 0, 0, 0, 0, 1}
	farAddr  = xk.EthAddr{2, 0, 0, 0, 0, 2}
)

// echoLinks attaches two links to a fresh wire. The far link returns
// every frame it receives; arrived runs when one comes back. send
// transmits one 64-byte frame from the near link.
func echoLinks(f wire.Factory, arrived func()) (w wire.Wire, send func() error, err error) {
	w, err = f()
	if err != nil {
		return nil, nil, err
	}
	near, err := w.Attach(nearAddr)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	far, err := w.Attach(farAddr)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	// dst(6) src(6) type(2) and payload: the header the socket backend
	// validates. The receiver owns the slice, so the far end readdresses
	// it in place, and the near end rewrites it before every send.
	far.SetReceiver(func(frame []byte) {
		copy(frame[0:6], nearAddr[:])
		copy(frame[6:12], farAddr[:])
		_ = far.Send(nearAddr, frame) // a frame lost here shows as one that never arrived
	})
	near.SetReceiver(func([]byte) { arrived() })
	frame := make([]byte, 64)
	send = func() error {
		copy(frame[0:6], farAddr[:])
		copy(frame[6:12], nearAddr[:])
		return near.Send(farAddr, frame)
	}
	return w, send, nil
}

func simFrameRTT(v map[string]float64, batches int) error {
	var sent, back int
	w, send, err := echoLinks(sim.Factory(sim.Config{}), func() { back++ })
	if err != nil {
		return err
	}
	defer w.Close()
	ns, allocs := timeOp(batches, 20000, func() {
		sent++
		if err := send(); err != nil {
			panic(err)
		}
	})
	if back != sent {
		return fmt.Errorf("%d of %d frames came back", back, sent)
	}
	v["sim.frame_rtt_ns"], v["sim.frame_rtt_allocs"] = ns, allocs
	return nil
}

func udpFrameRTT(v map[string]float64) error {
	const trips = 2000
	back := make(chan struct{}, 1)
	w, send, err := echoLinks(udp.Factory(udp.Config{}), func() { back <- struct{}{} })
	if err != nil {
		return err
	}
	defer w.Close()
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	trip := func() error {
		if err := send(); err != nil {
			return err
		}
		timeout.Reset(time.Second)
		select {
		case <-back:
			return nil
		case <-timeout.C:
			return fmt.Errorf("no frame back within a second")
		}
	}
	for i := 0; i < trips/10; i++ {
		if err := trip(); err != nil {
			return err
		}
	}
	us := make([]float64, trips)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range us {
		start := time.Now()
		if err := trip(); err != nil {
			return err
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&m1)
	v["wire.udp.frame_rtt_us_p50"] = median(us)
	v["wire.udp.frame_rtt_allocs"] = float64(m1.Mallocs-m0.Mallocs) / trips
	return nil
}
