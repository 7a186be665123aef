// Package anatomy reconstructs recorded spans (internal/obs/span) into
// per-RPC cause trees and computes the latency anatomy of a protocol
// configuration: how the end-to-end round-trip time decomposes into
// exclusive per-layer costs — the measured counterpart of the paper's
// §4 cost tables and the arithmetic behind §4.3's claim that a
// composite's cost is the sum of its layers.
//
// Reconstruction uses two sources of causality, in order of strength:
//
//   - An explicit parent recorded by the capture site (the span id that
//     rode the message as an attribute). It is honored only when the
//     child's interval lies inside the parent's — a retransmission sent
//     from a held message copy can carry a span id whose interval has
//     long closed, and trusting it would corrupt the tree.
//   - Interval containment. Under the simulator's synchronous delivery
//     the whole RPC — client push, wire transit, server demux, handler,
//     reply path — runs nested on one shepherd goroutine, so the
//     innermost open span whose interval contains a span IS its causal
//     parent. This is what stitches the legs the attribute cannot
//     cross: the wire (frames are bytes) and reassembly (a message
//     assembled on a fragment whose own crossing has closed).
package anatomy

import (
	"fmt"
	"sort"
	"strings"

	"xkernel/internal/obs/span"
)

// Node is one span placed in a cause tree.
type Node struct {
	Span     span.Span
	Parent   *Node
	Children []*Node
}

// Exclusive is the node's self time: its duration minus the summed
// durations of its children. Negative exclusive time means the
// children overlap each other or spill past the parent — exactly what
// CheckComposition flags.
func (n *Node) Exclusive() int64 {
	ex := n.Span.Duration()
	for _, c := range n.Children {
		ex -= c.Span.Duration()
	}
	return ex
}

// Walk visits the node and every descendant, parents before children.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Analysis is the reconstructed forest plus bookkeeping about spans
// that could not be placed.
type Analysis struct {
	// Roots are the top-level trees in start order. When every RPC is
	// bracketed by a root span (xkanatomy's app/call span), one root is
	// one RPC.
	Roots []*Node
	// Total is how many spans were examined.
	Total int
	// Open counts spans that were never closed; they are excluded from
	// the forest (the integrity tests require this to be zero).
	Open int
	// Reparented counts spans whose recorded explicit parent was
	// rejected as interval-inconsistent and that were attached by
	// containment instead.
	Reparented int
}

// Analyze builds the cause forest from a recorder's spans.
func Analyze(spans []span.Span) *Analysis {
	a := &Analysis{Total: len(spans)}
	closed := make([]span.Span, 0, len(spans))
	for _, s := range spans {
		if !s.Done {
			a.Open++
			continue
		}
		closed = append(closed, s)
	}
	// Sort by start ascending; wider interval first on ties so a
	// containing span precedes its contents; id as the final tiebreak
	// (ids are begin-ordered, so an enclosing span that began first at
	// the same instant wins).
	sort.SliceStable(closed, func(i, j int) bool {
		si, sj := &closed[i], &closed[j]
		if si.StartNs != sj.StartNs {
			return si.StartNs < sj.StartNs
		}
		if si.EndNs != sj.EndNs {
			return si.EndNs > sj.EndNs
		}
		return si.ID < sj.ID
	})

	byID := make(map[uint64]*Node, len(closed))
	var stack []*Node
	for _, s := range closed {
		n := &Node{Span: s}
		byID[s.ID] = n
		// Innermost open ancestor by containment: pop everything that
		// ended before this span ends (sorted order guarantees
		// stack[k].StartNs <= s.StartNs).
		for len(stack) > 0 && stack[len(stack)-1].Span.EndNs < s.EndNs {
			stack = stack[:len(stack)-1]
		}
		var parent *Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		// Prefer the recorded parent when it is interval-consistent.
		if s.Parent != 0 {
			if p, ok := byID[s.Parent]; ok && contains(&p.Span, &s) {
				parent = p
			} else {
				a.Reparented++
			}
		}
		n.Parent = parent
		if parent == nil {
			a.Roots = append(a.Roots, n)
		} else {
			parent.Children = append(parent.Children, n)
		}
		stack = append(stack, n)
	}
	return a
}

func contains(p, c *span.Span) bool {
	return p.StartNs <= c.StartNs && c.EndNs <= p.EndNs
}

// CriticalPath follows the dominant child from root to leaf: at each
// level it descends into the child with the largest duration. Under
// synchronous nesting every span is on the execution path; this chain
// is where the time actually goes, each hop annotated by how much of
// its parent it explains.
func CriticalPath(root *Node) []*Node {
	path := []*Node{root}
	n := root
	for len(n.Children) > 0 {
		best := n.Children[0]
		for _, c := range n.Children[1:] {
			if c.Span.Duration() > best.Span.Duration() {
				best = c
			}
		}
		path = append(path, best)
		n = best
	}
	return path
}

// Row is one (layer, direction) line of the latency-anatomy table.
// Self is exclusive time (this layer alone); Total is inclusive
// (this layer and everything below it).
type Row struct {
	Layer string `json:"layer"`
	Dir   string `json:"dir"`
	Count int    `json:"count"`

	SelfP50Ns  int64 `json:"self_p50_ns"`
	SelfP99Ns  int64 `json:"self_p99_ns"`
	SelfSumNs  int64 `json:"self_sum_ns"`
	TotalP50Ns int64 `json:"total_p50_ns"`
	TotalP99Ns int64 `json:"total_p99_ns"`

	// Wire attribution sums (wire rows only): modeled serialization,
	// modeled propagation latency, measured reorder-hold queueing.
	WireSerNs   int64 `json:"wire_ser_ns,omitempty"`
	WireLatNs   int64 `json:"wire_lat_ns,omitempty"`
	WireQueueNs int64 `json:"wire_queue_ns,omitempty"`
}

// Table computes the per-(layer, direction) anatomy over the whole
// forest, sorted by summed self time descending — the first row is
// where the configuration spends most of itself.
func (a *Analysis) Table() []Row {
	type acc struct {
		self, total []int64
		row         Row
	}
	accs := make(map[string]*acc)
	for _, r := range a.Roots {
		r.Walk(func(n *Node) {
			key := n.Span.Layer + "\x00" + n.Span.Dir
			g, ok := accs[key]
			if !ok {
				g = &acc{row: Row{Layer: n.Span.Layer, Dir: n.Span.Dir}}
				accs[key] = g
			}
			g.row.Count++
			ex := n.Exclusive()
			g.self = append(g.self, ex)
			g.total = append(g.total, n.Span.Duration())
			g.row.SelfSumNs += ex
			g.row.WireSerNs += n.Span.WireSerNs
			g.row.WireLatNs += n.Span.WireLatNs
			g.row.WireQueueNs += n.Span.WireQueueNs
		})
	}
	rows := make([]Row, 0, len(accs))
	for _, g := range accs {
		g.row.SelfP50Ns = percentile(g.self, 50)
		g.row.SelfP99Ns = percentile(g.self, 99)
		g.row.TotalP50Ns = percentile(g.total, 50)
		g.row.TotalP99Ns = percentile(g.total, 99)
		rows = append(rows, g.row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfSumNs != rows[j].SelfSumNs {
			return rows[i].SelfSumNs > rows[j].SelfSumNs
		}
		return rows[i].Layer+rows[i].Dir < rows[j].Layer+rows[j].Dir
	})
	return rows
}

func percentile(v []int64, p int) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// Epsilon is the tolerance for the compositional invariant. A check of
// quantity q against bound b passes when q <= b + max(FloorNs,
// Frac*b): the floor absorbs timestamp granularity and the relative
// term absorbs proportional scheduler noise.
type Epsilon struct {
	Frac    float64
	FloorNs int64
}

// DefaultEpsilon tolerates 5% or 2µs, whichever is larger — generous
// against GC pauses at microsecond scale while still catching any
// structural error (a double-counted layer shows up as a whole layer
// cost, tens of percent).
var DefaultEpsilon = Epsilon{Frac: 0.05, FloorNs: 2000}

func (e Epsilon) slack(base int64) int64 {
	s := int64(e.Frac * float64(base))
	if s < e.FloorNs {
		s = e.FloorNs
	}
	return s
}

// Violation is one failure of the compositional invariant.
type Violation struct {
	Kind   string // "containment", "overlap", "sum"
	Node   *Node
	Detail string
}

func (v Violation) String() string {
	s := &v.Node.Span
	return fmt.Sprintf("%s: span %d (%s/%s [%d,%d]): %s",
		v.Kind, s.ID, s.Layer, s.Dir, s.StartNs, s.EndNs, v.Detail)
}

// CheckComposition verifies the §4.3 arithmetic as an invariant over
// the forest: every child's interval lies inside its parent's, sibling
// spans do not overlap (synchronous nesting admits no concurrency
// within one RPC), and each node's children sum to no more than the
// node itself — equivalently, Σ exclusive times over a tree equals the
// root's end-to-end duration. All comparisons carry the epsilon.
func (a *Analysis) CheckComposition(eps Epsilon) []Violation {
	var out []Violation
	for _, r := range a.Roots {
		r.Walk(func(n *Node) {
			dur := n.Span.Duration()
			var childSum int64
			for i, c := range n.Children {
				childSum += c.Span.Duration()
				slack := eps.slack(dur)
				if c.Span.StartNs < n.Span.StartNs-slack || c.Span.EndNs > n.Span.EndNs+slack {
					out = append(out, Violation{"containment", c, fmt.Sprintf(
						"outside parent span %d [%d,%d]", n.Span.ID, n.Span.StartNs, n.Span.EndNs)})
				}
				if i > 0 {
					prev := n.Children[i-1]
					if c.Span.StartNs < prev.Span.EndNs-eps.slack(prev.Span.Duration()) {
						out = append(out, Violation{"overlap", c, fmt.Sprintf(
							"overlaps sibling span %d ending %d", prev.Span.ID, prev.Span.EndNs)})
					}
				}
			}
			if childSum > dur+eps.slack(dur) {
				out = append(out, Violation{"sum", n, fmt.Sprintf(
					"children sum %dns exceeds span duration %dns", childSum, dur)})
			}
		})
	}
	return out
}

// FormatTree renders a node and its subtree as an indented text
// listing with durations and self times in microseconds.
func FormatTree(root *Node) string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		s := &n.Span
		fmt.Fprintf(&b, "%s%s/%s  %.1fus (self %.1fus)",
			strings.Repeat("  ", depth), s.Layer, s.Dir,
			float64(s.Duration())/1000, float64(n.Exclusive())/1000)
		if s.Bytes > 0 {
			fmt.Fprintf(&b, " len=%d", s.Bytes)
		}
		if s.Dir == span.DirWire {
			fmt.Fprintf(&b, " [ser %.1fus + lat %.1fus + queue %.1fus]",
				float64(s.WireSerNs)/1000, float64(s.WireLatNs)/1000, float64(s.WireQueueNs)/1000)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, "  %s", s.Detail)
		}
		if s.Err != "" {
			fmt.Fprintf(&b, "  err=%s", s.Err)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}
