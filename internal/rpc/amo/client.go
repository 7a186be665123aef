package amo

import (
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/retry"
)

// Client is one client channel's call slot: the lock, reply channel and
// timer around Call that CHANNEL, M.RPC and REQUEST_REPLY share, built at
// open and re-armed per call (the LRPC A-stack idea: per binding, not per
// call). A call is Start, then Send and Wait per attempt, then Finish;
// replies and acks reach it through Accept, on the delivering goroutine.
type Client struct {
	mu   sync.Mutex
	seqs *atomic.Uint32 // the protocol's counter, or nil: the slot counts its own
	seq  uint32
	busy bool
	call Call

	replies chan Reply // the current call's reply: filled by Deliver, drained by Start
	timeout *event.Timeout

	// held is the request kept for retransmission, touched only by the
	// call's goroutine. Last, so the fields above share a cache line.
	held msg.Msg
}

// Reply is what a call returns: the reply, or the error reported.
type Reply struct {
	M   *msg.Msg
	Err error
}

// Init readies the slot, its timer on clock. Calls are numbered 1, 2,
// 3... per slot or, if seqs is not nil, from that shared counter.
func (c *Client) Init(clock event.Clock, seqs *atomic.Uint32) {
	c.seqs = seqs
	c.replies = make(chan Reply, 1)
	c.timeout = event.NewTimeout(clock)
}

// Start claims the slot for a call (Call.Start's arguments) and reports
// its sequence number, or false if another call holds the slot. A reply
// that reached the previous call after it took its own is drained, so
// from now on only this call's counts.
func (c *Client) Start(numFrags uint16, base time.Duration, maxRetries int, policy retry.Policy) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.busy {
		return 0, false
	}
	c.busy = true
	if c.seqs != nil {
		c.seq = c.seqs.Add(1)
	} else {
		c.seq++
	}
	c.call.Start(numFrags, base, maxRetries, policy)
	select {
	case <-c.replies:
	default:
	}
	return c.seq, true
}

// Finish releases the slot; a finished call pins no payload.
func (c *Client) Finish() {
	c.held = msg.Msg{}
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// Hold keeps a copy of m for retransmission (Msg.CopyInto); the engine
// consumes m itself with the first transmission.
func (c *Client) Hold(m *msg.Msg) { m.CopyInto(&c.held) }

// Held returns a clone of the held request for a retransmission.
func (c *Client) Held() *msg.Msg { return c.held.Clone() }

// Send reports what this attempt transmits (Call.Send).
func (c *Client) Send() (frags uint16, pleaseAck bool) { return c.call.Send() }

// Attempt reports the current attempt: 0 is the first transmission.
func (c *Client) Attempt() int { return c.call.Attempt() }

// Wait arms Call.Wait() and takes the reply, returned with replied set,
// or the expiry. After an expiry it runs Call.Expire under the lock:
// again reports that a retransmission is due; neither means a timeout.
func (c *Client) Wait() (r Reply, replied, again bool) {
	c.timeout.Arm(c.call.Wait())
	select {
	case r = <-c.replies:
		c.timeout.Disarm()
		return r, true, false
	case <-c.timeout.C:
		c.timeout.Expired()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Reply{}, false, c.call.Expire()
}

// Accept admits a reply or an ack for call seq. It reports false, the
// slot unlocked, when seq is not the call in progress; otherwise the slot
// stays locked — what the engine does next (M.RPC collects fragments)
// runs under it — until Ack, Deliver or Unlock.
func (c *Client) Accept(seq uint32) bool {
	c.mu.Lock()
	if c.busy && seq == c.seq {
		return true
	}
	c.mu.Unlock()
	return false
}

// Ack records an explicit acknowledgement (Call.Ack), and unlocks.
func (c *Client) Ack(mask uint16) {
	c.call.Ack(mask)
	c.mu.Unlock()
}

// Deliver hands the call its reply, and unlocks; a duplicate finds the
// channel full and is dropped.
func (c *Client) Deliver(m *msg.Msg, err error) {
	select {
	case c.replies <- Reply{M: m, Err: err}:
	default:
	}
	c.mu.Unlock()
}

// Unlock ends an Accept that delivers nothing yet.
func (c *Client) Unlock() { c.mu.Unlock() }
