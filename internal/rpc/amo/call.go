// Package amo is the at-most-once algorithm of Sprite RPC, written once
// for both engines that carry it: CHANNEL, where the layered suite keeps
// it (§3.2), and M.RPC, the monolithic protocol it was taken from. The
// paper's point is that the decomposition changes the protocol
// boundaries and the headers, not the algorithm; here the algorithm is
// one package and each engine keeps only its own framing, fragmentation
// and demux.
//
// The client half is shared by all three engines, REQUEST_REPLY's
// zero-or-more client included: Call, a value with no goroutine, clock,
// message or lock, decides what a transmission sends, how long to wait
// for the reply, and whether an expiry retries or times out; Client is
// the per-channel slot around it (lock, sequence number, held request,
// reply channel, timer). What at-most-once adds is the server half, the
// duplicate filter: Host and Chan hold the boot epoch and the peer-boot
// table, the per-channel filter that admits one request at a time,
// admission against the execution ledger, and the write-ahead Record,
// under the request it was computed for, that must precede every reply.
package amo

import (
	"time"

	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/rpc/retry"
)

// Call is one call's retransmission state at the client: the attempt
// count, the message's fragments and the ones the server acknowledged,
// and the schedule. Client drives it: Start, Ack and Expire under the
// slot's lock; Send, Wait and Attempt read only what the calling
// goroutine writes, so the fault-free call takes no lock for them.
//
// The one ack rule: a retransmission sends the fragments the server has
// not acknowledged. Once it has acknowledged every one, the reply is
// overdue, and the retransmission re-probes with all of them: a server
// still executing answers with another ack, one that finished replays
// its recorded reply (the reply was lost after the ack), and one that
// rebooted rejects the stale epoch. A one-fragment message (every
// CHANNEL request) therefore sends its fragment on every attempt.
type Call struct {
	attempt    int
	maxRetries int
	base       time.Duration
	policy     retry.Policy
	full       uint16 // every fragment of the message
	send       uint16 // the fragments this attempt transmits
	acked      uint16 // the fragments the server reported holding
}

// Start begins a call of numFrags fragments whose attempts wait
// policy.Interval(attempt, base), retransmitting at most maxRetries
// times. Run it under the lock Ack runs under.
func (c *Call) Start(numFrags uint16, base time.Duration, maxRetries int, policy retry.Policy) {
	full := fragmask.Full(numFrags)
	*c = Call{maxRetries: maxRetries, base: base, policy: policy, full: full, send: full}
}

// Ack records the fragments an explicit acknowledgement reports the
// server holding; bits naming no fragment of the message are ignored.
func (c *Call) Ack(mask uint16) { c.acked |= mask & c.full }

// Send reports the fragments this attempt transmits and whether it asks
// for an explicit acknowledgement, which every retransmission does.
func (c *Call) Send() (frags uint16, pleaseAck bool) { return c.send, c.attempt > 0 }

// Wait is how long to wait for the reply after this attempt's
// transmission.
func (c *Call) Wait() time.Duration { return c.policy.Interval(c.attempt, c.base) }

// Attempt reports the current attempt: 0 is the first transmission.
func (c *Call) Attempt() int { return c.attempt }

// Expire advances the call past a wait that ended without a reply. It
// reports false when the call has made its last attempt and times out;
// otherwise the next attempt is a retransmission chosen by the one ack
// rule. Run it under the lock Ack runs under.
func (c *Call) Expire() bool {
	if c.attempt >= c.maxRetries {
		return false
	}
	c.attempt++
	if c.acked == c.full {
		c.acked = 0 // re-probe: whatever the server says next counts afresh
	}
	c.send = c.full &^ c.acked
	return true
}
