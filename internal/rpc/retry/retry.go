// Package retry makes the RPC suite's retransmission timing pluggable.
//
// The paper's protocols (§3.2) retransmit on a fixed step function: the
// timeout for a message is a base interval plus a per-fragment
// increment, and every retry waits the same amount again. That is the
// right default for an isolated 10 Mbps ethernet where loss means
// "collision or busy server", not congestion. Policy abstracts the
// schedule so a composition can swap in capped exponential backoff —
// the standard choice when the same stacks run over links where
// repeated loss usually means the path is down and hammering it helps
// nobody (partitions, crashed hosts, chaos scenarios).
//
// CHANNEL, M.RPC and REQUEST_REPLY use a Policy for call retransmission
// (REQUEST_REPLY always Step); FRAGMENT uses one for its gap-request
// (selective-retransmission) chase timers.
package retry

import "time"

// Policy maps a retransmission attempt to the interval to wait before
// (or after) it. Implementations must be safe for concurrent use.
type Policy interface {
	// Interval returns how long to wait after transmission attempt
	// `attempt` (0 = the initial send) before retransmitting, given the
	// protocol's base interval for the message (which already includes
	// any per-fragment increment).
	Interval(attempt int, base time.Duration) time.Duration
}

// Step is the paper's policy: every attempt waits the base interval.
// The zero value is ready to use.
type Step struct{}

// Interval returns base regardless of attempt.
func (Step) Interval(_ int, base time.Duration) time.Duration { return base }

// Exponential doubles the interval on every retry, capped at Cap:
// base, 2*base, 4*base, ... min(2^n*base, Cap). A zero Cap defaults to
// 64x the base, bounding the schedule without a magic absolute number.
type Exponential struct {
	// Cap bounds the interval; zero means 64 times the base.
	Cap time.Duration
}

// Interval returns the capped exponential interval for attempt.
func (e Exponential) Interval(attempt int, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	cap := e.Cap
	if cap <= 0 {
		cap = 64 * base
	}
	if attempt < 0 {
		attempt = 0
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= cap || d <= 0 { // d <= 0 guards duration overflow
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// Default is the policy protocols fall back to when their Config leaves
// the policy nil: the paper's step function.
var Default Policy = Step{}
