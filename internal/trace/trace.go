// Package trace is a lightweight, levelled tracing facility for watching
// messages move through protocol stacks. It exists so examples and the
// xktrace tool can show the shepherd's path through the protocol and
// session objects without instrumenting every protocol with logging
// dependencies.
//
// Hot-path cost is kept off the shepherd: a disabled site is a single
// atomic load, lines are formatted outside the lock into pooled
// buffers, and output goes through a buffered writer so a trace line is
// one short critical section and no syscall. Call Flush before reading
// the destination (or interleaving other writes to it).
//
// The single atomic load holds for a site written as
//
//	if trace.Enabled(trace.Packets) {
//		trace.Printf(trace.Packets, who, "push len=%d", m.Len())
//	}
//
// A bare Printf checks the level too, but only after the caller has
// boxed every non-constant argument into the variadic slice — one
// allocation per argument per message with tracing off. Every Printf
// on a Push/Pop/Demux path is therefore guarded (hotpathalloc enforces
// it); bare calls are for open, close and error paths.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Level controls verbosity.
type Level int32

// Trace levels, coarsest first.
const (
	Off     Level = iota // nothing
	Events               // opens, session creation, retransmissions, drops
	Packets              // plus every push/pop/demux
)

const bufSize = 32 * 1024

var (
	level atomic.Int32

	mu sync.Mutex
	bw *bufio.Writer // nil while output is discarded
)

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// SetLevel sets the global trace level.
func SetLevel(l Level) { level.Store(int32(l)) }

// SetOutput directs trace output to w; nil silences it. Any previously
// buffered lines are flushed to the old writer first.
func SetOutput(w io.Writer) {
	mu.Lock()
	defer mu.Unlock()
	if bw != nil {
		bw.Flush()
	}
	if w == nil {
		bw = nil
		return
	}
	bw = bufio.NewWriterSize(w, bufSize)
}

// Flush drains buffered trace lines to the output writer.
func Flush() {
	mu.Lock()
	if bw != nil {
		bw.Flush()
	}
	mu.Unlock()
}

// Enabled reports whether messages at level l are being emitted, so hot
// paths can skip argument formatting. It costs one atomic load and
// never allocates.
func Enabled(l Level) bool { return Level(level.Load()) >= l }

// Printf emits a trace line at level l, tagged with the component name.
// On a per-message path guard it with Enabled (see the package comment).
func Printf(l Level, who, format string, args ...any) {
	if Level(level.Load()) < l {
		return
	}
	emit(who, format, args)
}

// emit formats outside the lock and writes the finished line in one
// buffered write.
func emit(who, format string, args []any) {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, who...)
	for n := len(who); n < 10; n++ {
		b = append(b, ' ')
	}
	b = append(b, ' ')
	b = fmt.Appendf(b, format, args...)
	b = append(b, '\n')
	mu.Lock()
	if bw != nil {
		bw.Write(b)
	}
	mu.Unlock()
	*bp = b
	bufPool.Put(bp)
}
