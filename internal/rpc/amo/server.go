package amo

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"

	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Verdict is admission's answer to one request.
type Verdict uint8

const (
	// New: new work. Admit returns with the channel locked; the engine
	// finishes admitting under that lock (M.RPC collects fragments there)
	// and calls Commit, or Release while the request is incomplete.
	New Verdict = iota
	// Drop: an older request, or a duplicate of a finished one with no
	// reply left to replay.
	Drop
	// Ack: a duplicate of the request still executing, or a newer request
	// waiting for it to finish: send an explicit ack.
	Ack
	// Replay: push the recorded reply Admit returns with Resend.
	Replay
	// Reject: the request names an earlier incarnation of this host, and
	// the ledger cannot prove it executed there: refuse it, typed.
	Reject
)

// Request is what admission reads from a request header: the client
// channel, the epoch hint (the low 16 bits of the boot id the client last
// saw from this host, 0 for none), the client's boot id and the sequence
// number.
type Request struct {
	Key        ledger.Key
	Hint       uint16
	ClientBoot uint32
	Seq        uint32
}

// Counts are the server half's counters; LedgerReplays is the subset of
// ReplayedReplies answered across a reboot of this host.
type Counts struct {
	DuplicateRequests, ReplayedReplies, LedgerReplays int64
	StaleEpochRejects, RequestsServed, StaleReplies   int64
}

// ErrStaleReply is Record's refusal of a reply its channel no longer
// awaits: the request was answered, or superseded by a newer one.
var ErrStaleReply = errors.New("stale reply: its request is not the one the channel awaits")

// Host is one host's at-most-once state: its boot incarnation, the boot
// ids its calls learned of their servers, and one Chan per client
// channel it serves. The boot id and the peer table are atomic loads (a
// writer copies the table under peerMu); mu guards membership of chans
// only, and each Chan has its own lock, so requests on different
// channels never serialize on a host-wide one.
type Host struct {
	name string
	led  ledger.ExecLedger
	boot atomic.Uint32

	peerMu sync.Mutex
	peers  atomic.Pointer[map[xk.IPAddr]uint32]

	mu    sync.Mutex
	chans map[ledger.Key]*Chan

	duplicates, replays, ledgerReplays, rejects, served, stale atomic.Int64
}

// Init readies h for the protocol named name, in incarnation boot.
func (h *Host) Init(name string, boot uint32, led ledger.ExecLedger) {
	h.name, h.led = name, led
	h.boot.Store(boot)
	h.peers.Store(&map[xk.IPAddr]uint32{})
	h.chans = make(map[ledger.Key]*Chan)
}

// Boot reports the current boot incarnation.
func (h *Host) Boot() uint32 { return h.boot.Load() }

// Reboot simulates a crash: a new boot id, every server channel
// forgotten, and the ledger crashed with the host (a durable one replays
// its log into the new incarnation).
func (h *Host) Reboot() {
	boot := h.boot.Add(1)
	h.mu.Lock()
	h.chans = make(map[ledger.Key]*Chan)
	h.mu.Unlock()
	if err := h.led.Reboot(); err != nil {
		trace.Printf(trace.Events, h.name, "ledger reboot failed: %v", err)
	}
	trace.Printf(trace.Events, h.name, "rebooted, boot_id now %d", boot)
}

// Chans reports the number of live server channels.
func (h *Host) Chans() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.chans)
}

// Counts snapshots the counters.
func (h *Host) Counts() Counts {
	return Counts{
		DuplicateRequests: h.duplicates.Load(),
		ReplayedReplies:   h.replays.Load(),
		LedgerReplays:     h.ledgerReplays.Load(),
		StaleEpochRejects: h.rejects.Load(),
		RequestsServed:    h.served.Load(),
		StaleReplies:      h.stale.Load(),
	}
}

// PeerBoot reports the last boot incarnation observed from peer in a
// reply or ack header, or 0 if the peer has never answered.
func (h *Host) PeerBoot(peer xk.IPAddr) uint32 { return (*h.peers.Load())[peer] }

// NotePeerBoot records peer's boot id as carried in a reply or ack.
// Runs on every reply, so the common no-change case is one load.
func (h *Host) NotePeerBoot(peer xk.IPAddr, boot uint32) {
	if h.PeerBoot(peer) == boot {
		return
	}
	h.peerMu.Lock()
	defer h.peerMu.Unlock()
	next := maps.Clone(*h.peers.Load())
	next[peer] = boot
	h.peers.Store(&next)
}

// Admit runs a request through the duplicate filter; replay is the
// recorded reply for Replay, as fresh messages of its own to push. A
// stale epoch hint is decided against the ledger alone, with a nil Chan:
// Replay if the previous incarnation recorded exactly this request, else
// Reject (it may have executed in the ledger's unsynced window).
// Otherwise the request's Chan decides — seeded from the ledger by the
// request that creates it, so a recovered incarnation does not take a
// recorded request for new work.
func (h *Host) Admit(r Request) (c *Chan, v Verdict, replay []*msg.Msg) {
	if r.Hint != 0 && r.Hint != uint16(h.boot.Load()) {
		if e, ok := h.led.Lookup(r.Key); ok && e.ClientBoot == r.ClientBoot && e.Seq == r.Seq {
			if replay = h.replayOf(r.Key, e); replay == nil {
				return nil, Drop, nil
			}
			h.ledgerReplays.Add(1)
			trace.Printf(trace.Events, h.name, "ledger replay %v seq=%d (executed before crash)", r.Key, r.Seq)
			return nil, Replay, replay
		}
		h.rejects.Add(1)
		trace.Printf(trace.Events, h.name, "reject stale epoch %v seq=%d (hint %d, boot %d)", r.Key, r.Seq, r.Hint, h.boot.Load())
		return nil, Reject, nil
	}
	c = h.chanFor(r)
	v, replay = c.admit(r)
	return c, v, replay
}

// replayOf copies the reply e records out as messages to push, and counts
// the replay: clones of the frames a ledger holds, or the frames of a
// blob. A blob that does not decode is no reply to replay: nil.
func (h *Host) replayOf(k ledger.Key, e ledger.Entry) []*msg.Msg {
	var replay []*msg.Msg
	if e.Frames != nil {
		replay = make([]*msg.Msg, len(e.Frames))
		for i, f := range e.Frames {
			replay[i] = f.Clone()
		}
	} else {
		frames, err := ledger.DecodeFrames(e.Reply)
		if err != nil {
			trace.Printf(trace.Events, h.name, "no replay %v seq=%d: %v", k, e.Seq, err)
			return nil
		}
		replay = make([]*msg.Msg, len(frames))
		for i, fb := range frames {
			replay[i] = msg.New(fb)
		}
	}
	h.replays.Add(1)
	return replay
}

// chanFor finds or creates r's channel; only the request that creates it
// looks the seed up, outside mu, then re-checks the miss.
func (h *Host) chanFor(r Request) *Chan {
	h.mu.Lock()
	c := h.chans[r.Key]
	h.mu.Unlock()
	if c != nil {
		return c
	}
	seed, haveSeed := h.led.Lookup(r.Key)
	h.mu.Lock()
	defer h.mu.Unlock()
	if c = h.chans[r.Key]; c == nil {
		c = &Chan{host: h, key: r.Key, clientBoot: r.ClientBoot}
		if haveSeed && seed.ClientBoot == r.ClientBoot {
			c.lastSeq = seed.Seq
		}
		h.chans[r.Key] = c
	}
	return c
}

// State is an engine's own per-channel server state, kept on the Chan
// and touched only under its lock. ClientRebooted drops what it holds
// for the client's previous incarnation.
type State interface{ ClientRebooted() }

// Capture names the request Commit admitted: the client incarnation and
// the sequence number its reply is recorded under.
type Capture struct{ ClientBoot, Seq uint32 }

// Chan is one client channel's duplicate filter at the server. Its
// mutex makes the decision atomic per channel: admission takes it, the
// write-ahead Record takes it again. The reply lives in the ledger, and a
// replay copies it out under the same lock.
//
// It executes one request at a time: a newer one (a higher seq, or a new
// client incarnation) is acked meanwhile and supersedes it, so a late
// handler's result is refused, never recorded for or sent to another call.
type Chan struct {
	host *Host
	key  ledger.Key

	mu         sync.Mutex
	clientBoot uint32
	lastSeq    uint32
	executing  bool
	superseded bool  // a newer request waits for the one executing
	State      State // the engine's, set in the New path

	// frames lists the reply Record hands the ledger: its own heap copy of
	// the engine's list, which an interface call would otherwise move off
	// the engine's stack on every reply.
	frames []*msg.Msg
}

// Key names the channel in the ledger.
func (c *Chan) Key() ledger.Key { return c.key }

// admit is Admit's per-channel half: it returns with c locked for New.
func (c *Chan) admit(r Request) (Verdict, []*msg.Msg) {
	h := c.host
	c.mu.Lock()
	if c.executing && (c.clientBoot != r.ClientBoot || r.Seq > c.lastSeq) {
		c.superseded = true
		c.mu.Unlock()
		trace.Printf(trace.Events, h.name, "explicit ack %v boot=%d seq=%d: seq %d still executing", c.key, r.ClientBoot, r.Seq, c.lastSeq)
		return Ack, nil
	}
	if c.clientBoot != r.ClientBoot {
		// Everything the channel remembers belongs to a dead incarnation
		// of the client, which can never legally ask for its reply again.
		trace.Printf(trace.Events, h.name, "client rebooted (boot %d -> %d), resetting %v", c.clientBoot, r.ClientBoot, c.key)
		c.clientBoot = r.ClientBoot
		c.lastSeq = 0
		if c.State != nil {
			c.State.ClientRebooted()
		}
		//xk:allow locksafety — retire must be ordered with the boot-epoch flip under c.mu; the fsync Schedule only enqueues
		if err := h.led.Retire(c.key); err != nil {
			trace.Printf(trace.Events, h.name, "ledger retire %v: %v", c.key, err)
		}
	}
	switch {
	case c.lastSeq != 0 && r.Seq < c.lastSeq:
		h.duplicates.Add(1)
		c.mu.Unlock()
		return Drop, nil
	case r.Seq == c.lastSeq:
		h.duplicates.Add(1)
		if c.executing {
			c.mu.Unlock()
			trace.Printf(trace.Events, h.name, "explicit ack %v seq=%d", c.key, r.Seq)
			return Ack, nil
		}
		var replay []*msg.Msg
		if e, ok := h.led.Lookup(c.key); ok && e.ClientBoot == r.ClientBoot && e.Seq == r.Seq {
			replay = h.replayOf(c.key, e)
		}
		c.mu.Unlock()
		if replay == nil {
			return Drop, nil
		}
		trace.Printf(trace.Events, h.name, "replay reply %v seq=%d", c.key, r.Seq)
		return Replay, replay
	}
	// A new request implicitly acknowledges the previous reply, whose
	// ledger entry is overwritten when this one records its own.
	return New, nil
}

// Commit admits new request seq, executing until its Record, unlocks,
// and returns the request's capture.
func (c *Chan) Commit(seq uint32) Capture {
	c.lastSeq = seq
	c.executing = true
	cp := Capture{c.clientBoot, seq}
	c.mu.Unlock()
	c.host.served.Add(1)
	return cp
}

// Captured reports the request the channel admitted last.
func (c *Chan) Captured() Capture {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Capture{c.clientBoot, c.lastSeq}
}

// Release unlocks without admitting: the request is not complete yet.
func (c *Chan) Release() { c.mu.Unlock() }

// Record is the one write-ahead site: request cp's reply, framed as it
// will leave, is recorded under cp before any frame of it is pushed; the
// ledger keeps a copy, and the frames go on to be pushed. On an error they
// must not be sent; ErrStaleReply (counted) refuses a request no longer
// executing or superseded, and ends its execution.
func (c *Chan) Record(cp Capture, frames ...*msg.Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	current := c.executing && cp == Capture{c.clientBoot, c.lastSeq}
	stale := !current || c.superseded
	if current {
		c.executing, c.superseded = false, false
	}
	if stale {
		c.host.stale.Add(1)
		return ErrStaleReply
	}
	c.frames = append(c.frames[:0], frames...)
	//xk:allow locksafety — write-ahead by design: Record must commit under c.mu before the reply leaves; its fsync Schedule only enqueues, the sync handler re-locks on a later dispatch
	err := c.host.led.Record(c.key, ledger.Entry{ClientBoot: cp.ClientBoot, Seq: cp.Seq, Frames: c.frames})
	clear(c.frames)
	return err
}

// Abort ends request cp's execution with nothing recorded or sent, on an
// engine error between Commit and Record; the channel admits its next request.
func (c *Chan) Abort(cp Capture) {
	c.mu.Lock()
	if c.executing && cp == (Capture{c.clientBoot, c.lastSeq}) {
		c.executing, c.superseded = false, false
	}
	c.mu.Unlock()
}

// Resend pushes the reply Admit returned for Replay through lls, frame by
// frame, byte for byte as it was recorded, old boot id and all.
func Resend(lls xk.Session, replay []*msg.Msg) error {
	for _, f := range replay {
		if err := lls.Push(f); err != nil {
			return err
		}
	}
	return nil
}
