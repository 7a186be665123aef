// Package sim provides the network substrate the protocol suite runs on:
// in-memory ethernet segments that stand in for the paper's isolated
// 10 Mbps ethernet between two Sun 3/75s.
//
// A Network is one broadcast domain. Hosts attach NICs; a frame sent to a
// unicast address is delivered to the NIC bound to it, and a frame sent
// to the broadcast address is delivered to every other NIC. Multiple
// Networks joined by a host with two NICs (an IP router) model the
// "destination is not on the local network" case that VIP distinguishes
// (§3.1).
//
// Delivery is synchronous by default: the receiver's callback runs on the
// sender's goroutine, which is exactly the x-kernel shepherd-process
// model — sending a message costs procedure calls, not context switches.
// A non-zero Latency switches a link to timer-driven asynchronous
// delivery for demos that want to watch real time pass.
//
// The segment is a physical model. The faults it injects are the ones
// that need its seeded RNG and its place on the wire to mean anything
// reproducible — loss, duplication, one-frame reordering, corruption, at
// configured rates, deterministic given the Seed — plus the crash model
// (Detach and Reattach: an interface vanishing with its host and coming
// back). Scripted adversity — "the third reply vanishes", a partition, a
// link cut — is not decided here: wire.Injector interposes on the seam
// above any backend and is the one place such a fault lives.
//
// The Network also keeps virtual wire-occupancy accounting: every frame
// charges its serialization time at the configured bandwidth to a
// virtual clock. The benchmark harness uses that to compute the
// wire-limited throughput bound that explains the paper's observation
// that monolithic and layered RPC both saturate the ethernet (§4.2).
package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/obs/flight"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/obs/span"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// DefaultMTU is the ethernet maximum transmission unit used throughout
// the paper: "ETH is able to deliver 1500-byte packets".
const DefaultMTU = 1500

// EthHeaderBytes is the framing overhead charged to the wire per frame in
// addition to the payload (14-byte header; preamble/CRC/gap folded in to
// keep the model simple but honest about per-frame cost). It is the
// seam's constant: every backend accepts the same frame sizes.
const EthHeaderBytes = wire.EthHeaderBytes

// Config parameterizes a Network.
type Config struct {
	// MTU is the largest frame payload the network accepts (the
	// ethernet header is not counted). Zero means DefaultMTU.
	MTU int
	// BandwidthBps is the wire rate in bits per second used for the
	// virtual occupancy accounting. Zero means 10 Mbps.
	BandwidthBps int64
	// Latency, when non-zero, delays each delivery by that duration on
	// a timer instead of delivering synchronously.
	Latency time.Duration
	// Async dispatches every delivery on its own goroutine even with
	// zero latency — a dedicated shepherd process per frame, the
	// x-kernel's concurrency model taken literally. Synchronous
	// delivery (the default) is faster and deterministic; Async
	// stresses the stacks' locking.
	Async bool
	// LossRate is the probability in [0,1) that a frame is silently
	// dropped.
	LossRate float64
	// DupRate is the probability in [0,1) that a frame is delivered
	// twice.
	DupRate float64
	// ReorderRate is the probability in [0,1) that a frame is held and
	// delivered after the next frame on the segment.
	ReorderRate float64
	// CorruptRate is the probability in [0,1) that one payload byte is
	// flipped (for checksum tests).
	CorruptRate float64
	// Seed makes fault injection deterministic; zero means a fixed
	// default seed (still deterministic).
	Seed int64
	// Clock drives latency timers and capture timestamps. Nil means
	// event.Real(); chaos scenarios inject a FakeClock so that even
	// latency-bearing links stay bit-reproducible.
	Clock event.Clock
}

// Stats counts network activity.
type Stats struct {
	FramesSent      int64
	FramesDelivered int64
	FramesDropped   int64 // fault-injected losses
	FramesNoDest    int64 // unicast to an unattached address
	FramesDuplicate int64
	FramesReordered int64
	FramesCorrupted int64
	BytesSent       int64
	WireTime        time.Duration // cumulative serialization time
}

// Network is one ethernet segment.
type Network struct {
	cfg     Config
	rng     *rand.Rand
	clock   event.Clock
	hasRand bool // any probabilistic fault rate configured (fixed at New)

	// Counters are atomics so the contended fast path below can account
	// frames without the segment lock; the slow path bumps them with the
	// lock held, which is equally safe.
	ctr counters

	// fast is true while nothing on the segment needs the locked path:
	// no probabilistic faults, no capture or span hooks. Unicast Sends
	// then run entirely on atomics plus the read-only NIC snapshot, so
	// concurrent senders do not serialize on mu. Recomputed under mu by
	// every mutator that could change the answer.
	fast   atomic.Bool
	nicsRO atomic.Pointer[map[xk.EthAddr]*NIC] // copy-on-write; rebuilt on attach/detach

	// deliveriesInFlight counts frames accepted by the segment but not
	// yet handed to their receiver — the delivery queue that builds up
	// on latency-bearing (timer) and async (shepherd-per-frame) links.
	// It is the segment's queue-depth gauge; synchronous delivery never
	// queues, so there it stays zero.
	deliveriesInFlight atomic.Int64

	mu      sync.Mutex
	nics    map[xk.EthAddr]*NIC
	held    *heldFrame // one-frame reorder buffer
	capture func(FrameRecord)
	spanrec *span.Recorder
	flight  *flight.Recorder
}

// counters mirrors Stats field-for-field with atomic cells; WireTime is
// kept in nanoseconds.
type counters struct {
	framesSent      atomic.Int64
	framesDelivered atomic.Int64
	framesDropped   atomic.Int64
	framesNoDest    atomic.Int64
	framesDuplicate atomic.Int64
	framesReordered atomic.Int64
	framesCorrupted atomic.Int64
	bytesSent       atomic.Int64
	wireTimeNs      atomic.Int64
}

// recomputeFastLocked re-derives the fast-path flag; called with n.mu
// held by every mutator of the state it reads. A held reorder frame
// implies ReorderRate > 0 and therefore hasRand, so it needs no term.
func (n *Network) recomputeFastLocked() {
	n.fast.Store(!n.hasRand && n.capture == nil && n.spanrec == nil)
}

// snapshotNicsLocked republishes the read-only NIC table after an
// attach, detach, or reattach. Called with n.mu held.
func (n *Network) snapshotNicsLocked() {
	snap := make(map[xk.EthAddr]*NIC, len(n.nics))
	for a, t := range n.nics {
		snap[a] = t
	}
	n.nicsRO.Store(&snap)
}

// Frame dispositions recorded by the capture hook. A frame's
// disposition is what the fault injector decided at send time;
// modifiers are joined with "+" ("deliver+corrupt+dup").
const (
	FrameDelivered = "deliver" // sent on toward its destination
	FrameDropped   = "drop"    // silently lost
	FrameCorrupted = "corrupt" // one payload byte flipped (modifier)
	FrameDup       = "dup"     // delivered twice (modifier)
	FrameReordered = "reorder" // held one frame, delivered behind the next
)

// FrameRecord describes one frame observed on the wire. Records are
// emitted once per Send, in transmission order; a frame held for
// reordering is recorded when sent (disposition "reorder"), not again
// when released.
type FrameRecord struct {
	// Index is the 1-based transmission ordinal on this segment.
	Index int64 `json:"index"`
	// Time is the wall-clock capture time.
	Time time.Time `json:"time"`
	// Src and Dst are the sending NIC's address and the out-of-band
	// destination.
	Src xk.EthAddr `json:"src"`
	Dst xk.EthAddr `json:"dst"`
	// Len is the frame length in bytes (header included).
	Len int `json:"len"`
	// Disposition is what the segment did with the frame.
	Disposition string `json:"disposition"`
	// Frame is a copy of the bytes as transmitted (post-corruption).
	Frame []byte `json:"-"`
}

// SetCapture installs a packet-capture callback invoked once per sent
// frame, in transmission order, before delivery. Pass nil to detach.
// The callback runs on the sender's goroutine; the record's Frame is a
// private copy.
func (n *Network) SetCapture(f func(FrameRecord)) {
	n.mu.Lock()
	n.capture = f
	n.recomputeFastLocked()
	n.mu.Unlock()
}

// SetSpans attaches a span recorder; every frame transit is recorded
// as a "wire" span with its time attributed separately to modeled
// serialization (bandwidth), configured propagation latency, and
// measured reorder-hold queueing. Pass nil to detach. Wire spans carry
// no parent — the anatomy analyzer attaches them to the sending
// boundary's span by interval containment.
func (n *Network) SetSpans(r *span.Recorder) {
	n.mu.Lock()
	n.spanrec = r
	n.recomputeFastLocked()
	n.mu.Unlock()
}

// SetFlight attaches a flight recorder; every frame the segment does
// anything adversarial to (drop, corruption, duplication, reorder hold)
// is recorded as a "wire" event with the disposition, frame index, and
// length. Cleanly delivered frames are not recorded — the black box
// keeps the anomalies, not the traffic — and neither are scripted
// vetoes, which never reach the segment (wire.Injector.OnDrop reports
// those). Pass nil to detach.
//
// Deliberately not folded into the contended-delivery fast path
// predicate: adversarial dispositions only arise on the locked path,
// so a clean segment keeps its lock-free Sends (and byte-identical
// wire) with the recorder attached.
func (n *Network) SetFlight(r *flight.Recorder) {
	n.mu.Lock()
	n.flight = r
	n.mu.Unlock()
}

// flightWire records one adversarial frame disposition, formatting the
// src>dst detail only when the recorder is live.
func flightWire(fl *flight.Recorder, disposition string, src, dst xk.EthAddr, index int64, length int) {
	if fl.Enabled() {
		fl.Record("wire", disposition, fmt.Sprintf("%s>%s", src, dst), index, int64(length))
	}
}

// wireSpanLocked opens a transit span for one frame, returning id 0
// when span capture is off. Called with n.mu held; the recorder's own
// lock is leaf-level so the ordering is safe.
func (n *Network) wireSpanLocked(length int) (rec *span.Recorder, id uint64, startNs int64) {
	rec = n.spanrec
	if !rec.Enabled() {
		return nil, 0, 0
	}
	startNs = rec.Since(n.clock.Now())
	return rec, rec.Begin("wire", span.DirWire, 0, 0, length, startNs), startNs
}

// closeWireSpan ends a transit span with its attribution and a
// "disposition src->dst" detail. queueNs is nonzero only for frames
// released from the reorder hold.
func (n *Network) closeWireSpan(rec *span.Recorder, id uint64, startNs, serNs, queueNs int64, src, dst xk.EthAddr, disposition string) {
	if id == 0 {
		return
	}
	endNs := rec.Since(n.clock.Now())
	if endNs < startNs {
		endNs = startNs
	}
	rec.EndWire(id, endNs, serNs, n.cfg.Latency.Nanoseconds(), queueNs)
	rec.SetDetail(id, fmt.Sprintf("%s %s->%s", disposition, src, dst))
}

type heldFrame struct {
	dst   xk.EthAddr
	src   *NIC
	frame []byte

	// Reorder-hold span accounting: the recorder and open wire span
	// plus entry time, so queueing is measured at release.
	spanRec *span.Recorder
	spanID  uint64
	heldNs  int64
	serNs   int64
	startNs int64
}

// ErrFrameTooBig is returned by Send for frames over the MTU plus header.
// It is the seam's sentinel, so errors.Is works the same over any backend.
var ErrFrameTooBig = wire.ErrFrameTooBig

// New creates a network segment.
func New(cfg Config) *Network {
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = 10_000_000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5053_1989 // deterministic default
	}
	clock := cfg.Clock
	if clock == nil {
		clock = event.Real()
	}
	n := &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		clock:   clock,
		hasRand: cfg.LossRate > 0 || cfg.DupRate > 0 || cfg.ReorderRate > 0 || cfg.CorruptRate > 0,
		nics:    make(map[xk.EthAddr]*NIC),
	}
	n.snapshotNicsLocked()
	n.recomputeFastLocked()
	return n
}

// NIC is a host's attachment to a Network. Receive delivery invokes the
// handler installed with SetReceiver.
type NIC struct {
	net  *Network
	addr xk.EthAddr

	// recv is the one receive slot, in whichever form it was installed.
	// It is read on every delivery, concurrently with other deliveries;
	// an atomic pointer keeps the receive path off any lock.
	recv atomic.Pointer[wire.Receiver]
}

// Attach creates a NIC with the given hardware address. Attaching a
// duplicate address fails.
func (n *Network) Attach(addr xk.EthAddr) (*NIC, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nics[addr]; dup {
		return nil, fmt.Errorf("sim: address %s: %w", addr, wire.ErrDuplicateAddr)
	}
	nic := &NIC{net: n, addr: addr}
	n.nics[addr] = nic
	n.snapshotNicsLocked()
	return nic, nil
}

// Detach removes the NIC from the segment. A frame sitting in the
// reorder hold that was sent by or addressed to the detached NIC is
// dropped deterministically — it must not be delivered to a dead
// receiver, nor survive to greet a later reattachment at the same
// address with pre-crash traffic.
func (n *Network) Detach(nic *NIC) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nics, nic.addr)
	n.snapshotNicsLocked()
	if h := n.held; h != nil && (h.src == nic || h.dst == nic.addr) {
		n.held = nil
		n.ctr.framesDropped.Add(1)
		h.closeHeldSpan(n)
	}
}

// Reattach restores a previously detached NIC at its old address — the
// second half of the crash model (Detach is the NIC vanishing with the
// crashed host; Reattach is the rebooted host's interface coming back).
// The NIC keeps its receiver, so the host's stack resumes receiving
// frames; protocol state above it is the host's problem (that is what
// Reboot on the RPC layers models). Reattaching while another NIC holds
// the address fails.
func (n *Network) Reattach(nic *NIC) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, dup := n.nics[nic.addr]; dup {
		if cur == nic {
			return nil
		}
		return fmt.Errorf("sim: address %s: %w", nic.addr, wire.ErrDuplicateAddr)
	}
	n.nics[nic.addr] = nic
	n.snapshotNicsLocked()
	return nil
}

// Stats returns a snapshot of the segment counters.
func (n *Network) Stats() Stats {
	return Stats{
		FramesSent:      n.ctr.framesSent.Load(),
		FramesDelivered: n.ctr.framesDelivered.Load(),
		FramesDropped:   n.ctr.framesDropped.Load(),
		FramesNoDest:    n.ctr.framesNoDest.Load(),
		FramesDuplicate: n.ctr.framesDuplicate.Load(),
		FramesReordered: n.ctr.framesReordered.Load(),
		FramesCorrupted: n.ctr.framesCorrupted.Load(),
		BytesSent:       n.ctr.bytesSent.Load(),
		WireTime:        time.Duration(n.ctr.wireTimeNs.Load()),
	}
}

// ResetStats zeroes the counters (benchmark harness hook).
func (n *Network) ResetStats() {
	n.ctr.framesSent.Store(0)
	n.ctr.framesDelivered.Store(0)
	n.ctr.framesDropped.Store(0)
	n.ctr.framesNoDest.Store(0)
	n.ctr.framesDuplicate.Store(0)
	n.ctr.framesReordered.Store(0)
	n.ctr.framesCorrupted.Store(0)
	n.ctr.bytesSent.Store(0)
	n.ctr.wireTimeNs.Store(0)
}

// MTU reports the segment MTU.
func (n *Network) MTU() int { return n.cfg.MTU }

// Addr returns the NIC's hardware address.
func (nic *NIC) Addr() xk.EthAddr { return nic.addr }

// MTU reports the segment MTU.
func (nic *NIC) MTU() int { return nic.net.cfg.MTU }

// SetMsgReceiver installs the driver's frame handler; it is the entry
// point of the shepherd path upward through the protocol stack.
func (nic *NIC) SetMsgReceiver(f func(m *msg.Msg)) {
	nic.recv.Store(wire.MsgReceiver(f))
}

// SetReceiver installs a raw-frame handler in the same slot.
func (nic *NIC) SetReceiver(f func(frame []byte)) {
	nic.recv.Store(wire.FrameReceiver(f))
}

// sendFast is the contended-delivery fast path: with no faults, capture
// or spans configured, a unicast frame needs only counter updates and a
// lookup in the read-only NIC snapshot — concurrent senders never touch
// the segment lock. It accounts one frame of size bytes and
// returns the NIC it is delivered to, nil when nothing is attached at
// dst; ok is false when the frame must take the locked path instead. A
// mutator flipping the flag concurrently is ordered exactly as if it ran
// just after this send.
func (n *Network) sendFast(dst xk.EthAddr, size int) (t *NIC, ok bool) {
	if dst.IsBroadcast() || !n.fast.Load() {
		return nil, false
	}
	n.ctr.framesSent.Add(1)
	n.ctr.bytesSent.Add(int64(size))
	n.ctr.wireTimeNs.Add(int64(n.serialization(size)))
	if t = (*n.nicsRO.Load())[dst]; t != nil {
		n.ctr.framesDelivered.Add(1)
	} else {
		n.ctr.framesNoDest.Add(1)
	}
	return t, true
}

// serialization is the wire time charged to a frame of size bytes.
func (n *Network) serialization(size int) time.Duration {
	return serializationTime(size+EthHeaderBytes-14, n.cfg.BandwidthBps)
}

// SendMsg transmits the frame m to dst and consumes m. On the fast path
// the receiving NIC is handed m itself: the sender's message is the
// receiver's, and no byte is copied. Anything the fast path does not
// cover — faults, capture, spans, broadcast — flattens m once and is
// Send, so frame records, wire logs and fault schedules do not depend on
// which form a frame was sent in.
func (nic *NIC) SendMsg(dst xk.EthAddr, m *msg.Msg) error {
	n := nic.net
	if m.Len() > n.cfg.MTU+EthHeaderBytes {
		return ErrFrameTooBig
	}
	if t, ok := n.sendFast(dst, m.Len()); ok {
		if t != nil {
			t.handleMsg(m)
		}
		return nil
	}
	return nic.Send(dst, m.Bytes())
}

// Send transmits frame to dst. The frame includes the ethernet header
// built by the ETH protocol; dst is passed out-of-band the way hardware
// address-matches the header. Send applies fault injection and wire
// accounting, then delivers synchronously (or on a timer when Latency is
// configured).
func (nic *NIC) Send(dst xk.EthAddr, frame []byte) error {
	n := nic.net
	if len(frame) > n.cfg.MTU+EthHeaderBytes {
		return ErrFrameTooBig
	}
	if t, ok := n.sendFast(dst, len(frame)); ok {
		if t != nil {
			t.handle(frame)
		}
		return nil
	}
	ser := n.serialization(len(frame))

	n.mu.Lock()
	index := n.ctr.framesSent.Add(1)
	n.ctr.bytesSent.Add(int64(len(frame)))
	n.ctr.wireTimeNs.Add(int64(ser))
	capture := n.capture
	fl := n.flight
	rec, sid, sendNs := n.wireSpanLocked(len(frame))

	// Fault injection.
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.ctr.framesDropped.Add(1)
		n.mu.Unlock()
		n.closeWireSpan(rec, sid, sendNs, ser.Nanoseconds(), 0, nic.addr, dst, FrameDropped)
		if capture != nil {
			capture(n.record(index, nic.addr, dst, frame, FrameDropped))
		}
		flightWire(fl, FrameDropped, nic.addr, dst, index, len(frame))
		return nil
	}
	corrupted := false
	if n.cfg.CorruptRate > 0 && len(frame) > 14 && n.rng.Float64() < n.cfg.CorruptRate {
		n.ctr.framesCorrupted.Add(1)
		corrupted = true
		frame = append([]byte(nil), frame...)
		i := 14 + n.rng.Intn(len(frame)-14)
		frame[i] ^= 0x40
	}
	dup := n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate
	if dup {
		n.ctr.framesDuplicate.Add(1)
	}

	// One-frame reordering: optionally hold this frame; any held frame
	// is released behind the current one.
	var deliverNow []heldFrame
	disposition := FrameDelivered
	if n.cfg.ReorderRate > 0 && n.held == nil && n.rng.Float64() < n.cfg.ReorderRate {
		n.ctr.framesReordered.Add(1)
		n.held = &heldFrame{dst: dst, src: nic, frame: frame,
			spanRec: rec, spanID: sid, heldNs: sendNs, serNs: ser.Nanoseconds(), startNs: sendNs}
		sid = 0 // stays open until release; queueing is measured then
		disposition = FrameReordered
	} else {
		deliverNow = append(deliverNow, heldFrame{dst: dst, src: nic, frame: frame})
		if dup {
			deliverNow = append(deliverNow, heldFrame{dst: dst, src: nic, frame: frame})
		}
		if n.held != nil {
			deliverNow = append(deliverNow, *n.held)
			n.held = nil
		}
	}
	n.mu.Unlock()

	if corrupted {
		disposition += "+" + FrameCorrupted
	}
	if dup {
		disposition += "+" + FrameDup
	}
	n.closeWireSpan(rec, sid, sendNs, ser.Nanoseconds(), 0, nic.addr, dst, disposition)
	if capture != nil {
		capture(n.record(index, nic.addr, dst, frame, disposition))
	}
	if disposition != FrameDelivered {
		flightWire(fl, disposition, nic.addr, dst, index, len(frame))
	}
	for _, f := range deliverNow {
		f.closeHeldSpan(n)
		n.deliver(f.src, f.dst, f.frame)
	}
	return nil
}

// closeHeldSpan ends the wire span of a frame released from the
// reorder hold, attributing the hold time as queueing. Frames that
// were never held carry no span here (spanID 0) — their span closed
// at send time.
func (f *heldFrame) closeHeldSpan(n *Network) {
	if f.spanID == 0 {
		return
	}
	queue := f.spanRec.Since(n.clock.Now()) - f.heldNs
	if queue < 0 {
		queue = 0
	}
	n.closeWireSpan(f.spanRec, f.spanID, f.startNs, f.serNs, queue, f.src.addr, f.dst, FrameReordered)
}

// record builds a FrameRecord with a private copy of the frame bytes,
// timestamped on the network's injected clock.
func (n *Network) record(index int64, src, dst xk.EthAddr, frame []byte, disposition string) FrameRecord {
	return FrameRecord{
		Index:       index,
		Time:        n.clock.Now(),
		Src:         src,
		Dst:         dst,
		Len:         len(frame),
		Disposition: disposition,
		Frame:       append([]byte(nil), frame...),
	}
}

// Flush releases any frame held by the reorder buffer (test hook, and
// called implicitly as traffic flows).
func (n *Network) Flush() {
	n.mu.Lock()
	h := n.held
	n.held = nil
	n.mu.Unlock()
	if h != nil {
		h.closeHeldSpan(n)
		n.deliver(h.src, h.dst, h.frame)
	}
}

func (n *Network) deliver(src *NIC, dst xk.EthAddr, frame []byte) {
	var targets []*NIC
	n.mu.Lock()
	if dst.IsBroadcast() {
		for _, t := range n.nics {
			if t != src {
				targets = append(targets, t)
			}
		}
		sortNICs(targets)
	} else if t, ok := n.nics[dst]; ok {
		targets = append(targets, t)
	} else {
		n.ctr.framesNoDest.Add(1)
	}
	n.ctr.framesDelivered.Add(int64(len(targets)))
	n.mu.Unlock()

	for _, t := range targets {
		t.handle(frame)
	}
}

// sortNICs orders NICs by hardware address so broadcast fan-out is
// deterministic (map iteration order is not).
func sortNICs(nics []*NIC) {
	for i := 1; i < len(nics); i++ {
		for j := i; j > 0 && bytes.Compare(nics[j].addr[:], nics[j-1].addr[:]) < 0; j-- {
			nics[j], nics[j-1] = nics[j-1], nics[j]
		}
	}
}

// handle delivers a frame held as bytes to the NIC's receiver:
// synchronously on the sender's goroutine unless the segment is configured
// otherwise.
func (t *NIC) handle(frame []byte) {
	r := t.recv.Load()
	if r == nil {
		return
	}
	if n := t.net; n.cfg.Latency > 0 || n.cfg.Async {
		n.deliverLater(func() { r.Frame(frame) })
		return
	}
	r.Frame(frame)
}

// handleMsg is handle for a frame held as a message.
func (t *NIC) handleMsg(m *msg.Msg) {
	r := t.recv.Load()
	if r == nil {
		return
	}
	if n := t.net; n.cfg.Latency > 0 || n.cfg.Async {
		n.deliverLater(func() { r.Msg(m) })
		return
	}
	r.Msg(m)
}

// deliverLater runs one delivery off the sender's goroutine: on the
// latency timer, or (Async) on a shepherd goroutine of its own.
func (n *Network) deliverLater(deliver func()) {
	n.deliveriesInFlight.Add(1)
	run := func() {
		n.deliveriesInFlight.Add(-1)
		deliver()
	}
	if n.cfg.Latency > 0 {
		n.clock.Schedule(n.cfg.Latency, run)
		return
	}
	go run()
}

// DeliveriesInFlight reports how many frames the segment has accepted
// but not yet handed to a receiver (timer-delayed and async deliveries
// pending); synchronous segments always report zero.
func (n *Network) DeliveriesInFlight() int64 { return n.deliveriesInFlight.Load() }

// HeldFrames reports whether the one-frame reorder buffer is occupied
// (0 or 1).
func (n *Network) HeldFrames() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.held != nil {
		return 1
	}
	return 0
}

// AttachedNICs reports how many NICs are on the segment.
func (n *Network) AttachedNICs() int64 {
	return int64(len(*n.nicsRO.Load()))
}

// RegisterGauges adds the segment's queue-depth gauges to set under
// prefix ("<prefix>.deliveries_inflight", ".held_frames", ".nics", and
// — when the segment runs on a FakeClock — ".clock_pending", the sim
// event-queue length). A nil set is a no-op.
func (n *Network) RegisterGauges(set *gauge.Set, prefix string) {
	set.Register(prefix+".deliveries_inflight", n.DeliveriesInFlight)
	set.Register(prefix+".held_frames", n.HeldFrames)
	set.Register(prefix+".nics", n.AttachedNICs)
	if fc, ok := n.clock.(*event.FakeClock); ok {
		set.Register(prefix+".clock_pending", func() int64 {
			return int64(fc.PendingCount())
		})
	}
}

// serializationTime is the time len bytes occupy a wire of rate bps.
func serializationTime(length int, bps int64) time.Duration {
	return time.Duration(int64(length) * 8 * int64(time.Second) / bps)
}
