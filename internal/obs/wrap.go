package obs

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"

	"xkernel/internal/msg"
	"xkernel/internal/obs/span"
	"xkernel/internal/xk"
)

// W is the interposable instrumentation protocol produced by Wrap. It
// is a passthrough layer in the x-kernel sense: it adds no header,
// forwards every operation to the protocol below, and measures each
// crossing into the meter's LayerStats for its name. Because the wrap
// presents itself as the lower protocol to the layer above (sessions
// answer Protocol() with the wrap) and as the higher protocol to the
// layer below (a per-hlp shim stands in as the enabled hlp), identity
// tests on both sides — VIP's `lls.Protocol() == p.ethp`, VIPsize's
// `lls.Protocol() == p.bulk` — keep working unchanged.
type W struct {
	xk.BaseProtocol
	lower xk.Protocol
	meter *Meter
	stats *LayerStats

	mu       sync.Mutex
	shims    map[xk.Protocol]*shim
	sessions map[xk.Session]*wrapSession
}

// Wrap interposes an instrumentation boundary named name above lower.
// Crossings are counted into meter.Layer(name); if the meter carries a
// tracer, each crossing also emits a structured event. The returned
// protocol is a drop-in replacement for lower.
func Wrap(name string, lower xk.Protocol, meter *Meter) *W {
	return &W{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		lower:        lower,
		meter:        meter,
		stats:        meter.Layer(name),
		shims:        make(map[xk.Protocol]*shim),
		sessions:     make(map[xk.Session]*wrapSession),
	}
}

// Lower reports the wrapped protocol.
func (w *W) Lower() xk.Protocol { return w.lower }

// shimFor returns the stand-in hlp used when talking to the lower
// protocol on behalf of hlp, one per higher protocol.
func (w *W) shimFor(hlp xk.Protocol) *shim {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.shims[hlp]
	if !ok {
		s = &shim{w: w, hlp: hlp}
		w.shims[hlp] = s
	}
	return s
}

// wrapped returns the wrapSession for inner, creating it with up as
// the higher protocol on first sight. Lower protocols cache sessions
// (ethernet refcounts by type+remote, channel by id), so repeated
// opens can return the same inner session; the wrap mirrors that by
// returning the same wrapper.
func (w *W) wrapped(inner xk.Session, up xk.Protocol) *wrapSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.sessions[inner]
	if !ok {
		ws = &wrapSession{w: w, inner: inner, up: up}
		w.sessions[inner] = ws
	}
	return ws
}

func (w *W) lookup(inner xk.Session) (*wrapSession, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.sessions[inner]
	return ws, ok
}

func (w *W) unregister(inner xk.Session) {
	w.mu.Lock()
	delete(w.sessions, inner)
	w.mu.Unlock()
}

// Open opens through the lower protocol and returns the instrumented
// session. The lower session's view of "up" is the shim, so upward
// deliveries pass through the boundary counter before reaching hlp.
func (w *W) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	w.stats.Opens.Add(1)
	inner, err := w.lower.Open(w.shimFor(hlp), ps)
	if err != nil {
		w.stats.Drops.Add(1)
		return nil, err
	}
	if t := w.meter.Tracer(); t != nil {
		t.Emit(w.Name(), EventOpen, 0, 0, "")
	}
	return w.wrapped(inner, hlp), nil
}

// OpenEnable enables through the lower protocol with the shim as
// receiver, so passively created sessions are wrapped before hlp ever
// sees them.
func (w *W) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	w.stats.OpenEnables.Add(1)
	return w.lower.OpenEnable(w.shimFor(hlp), ps)
}

// OpenDisable revokes a previous enable.
func (w *W) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	return w.lower.OpenDisable(w.shimFor(hlp), ps)
}

// OpenDone accepts lower-session announcements addressed directly to
// the wrap (none are expected; shims intercept the passive path).
func (w *W) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux handles upward deliveries addressed to the wrap itself. This
// happens when a protocol stored a wrapped session and later calls
// lls.Protocol().Demux-style dispatch; route it like a shim delivery.
func (w *W) Demux(lls xk.Session, m *msg.Msg) error {
	if ws, ok := w.lookup(lls); ok {
		return w.demuxUp(ws, m)
	}
	if ws, ok := lls.(*wrapSession); ok && ws.w == w {
		return w.demuxUp(ws, m)
	}
	return xk.ErrNoSession
}

// Control forwards to the lower protocol.
func (w *W) Control(op xk.ControlOp, arg any) (any, error) {
	return w.lower.Control(op, arg)
}

// demuxUp carries one message across the boundary upward: count, tag,
// trace, span, then hand to the higher protocol's Demux with the
// wrapped session as the source.
func (w *W) demuxUp(ws *wrapSession, m *msg.Msg) error {
	w.stats.Pops.Add(1)
	w.stats.BytesUp.Add(int64(m.Len()))
	t := w.meter.Tracer()
	if t != nil {
		t.Emit(w.Name(), EventPop, EnsureMsgID(m), m.Len(), "")
	}
	up := ws.Up()
	if up == nil {
		w.stats.Drops.Add(1)
		return xk.ErrNoSession
	}
	w.stats.Demuxes.Add(1)
	var sid uint64
	rec := w.meter.Spans()
	if rec.Enabled() {
		sid = rec.BeginMsg(w.Name(), span.DirUp, EnsureMsgID(m), m)
	}
	start := time.Now()
	err := w.demuxInner(up, ws, m)
	w.stats.PopLatency.Observe(time.Since(start))
	// The message was handed up and belongs to whoever received it — a
	// collecting layer may already have delivered it onward from another
	// goroutine — so the span closes without touching it again.
	if sid != 0 {
		rec.EndMsg(sid, nil, span.ErrString(err))
	}
	if err != nil {
		w.stats.Drops.Add(1)
		if t != nil {
			t.Emit(w.Name(), EventDrop, 0, 0, err.Error())
		}
	}
	return err
}

// demuxInner forwards the upward delivery, under a {layer=<name>}
// pprof label set when boundary labelling is on, so CPU profiles
// attribute the samples above this boundary to the layer. The label
// set extends the meter's ambient context, so a {stack=<name>} label
// planted by the harness survives every boundary crossing.
func (w *W) demuxInner(up xk.Protocol, ws *wrapSession, m *msg.Msg) error {
	if !w.meter.ProfileLabels() {
		return up.Demux(ws, m)
	}
	var err error
	pprof.Do(w.meter.ProfileContext(), pprof.Labels("layer", w.Name()), func(context.Context) {
		err = up.Demux(ws, m)
	})
	return err
}

// pushInner forwards the downward crossing, under a pprof label set
// when boundary labelling is on.
func (w *W) pushInner(ws *wrapSession, m *msg.Msg) error {
	if !w.meter.ProfileLabels() {
		return ws.inner.Push(m)
	}
	var err error
	pprof.Do(w.meter.ProfileContext(), pprof.Labels("layer", w.Name()), func(context.Context) {
		err = ws.inner.Push(m)
	})
	return err
}

// shim is the higher-protocol stand-in handed to the lower protocol.
// The lower protocol believes the shim is its hlp; every upward call
// is measured and translated (inner session → wrapSession) before
// being forwarded to the real hlp.
type shim struct {
	w   *W
	hlp xk.Protocol
}

// Name reports the real higher protocol's name so lower-protocol trace
// lines stay readable.
func (s *shim) Name() string { return s.hlp.Name() }

func (s *shim) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	return s.hlp.Open(hlp, ps)
}

func (s *shim) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	return s.hlp.OpenEnable(hlp, ps)
}

func (s *shim) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	return s.hlp.OpenDisable(hlp, ps)
}

// OpenDone wraps a passively created lower session and announces the
// wrapper to the real higher protocol, with the wrap as the announcing
// protocol — the hlp's session bookkeeping then keys on the wrapper,
// never on the naked inner session.
func (s *shim) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	s.w.stats.OpenDones.Add(1)
	ws := s.w.wrapped(lls, s.hlp)
	return s.hlp.OpenDone(s.w, ws, ps)
}

// Demux carries an upward delivery from the lower protocol across the
// boundary. Sessions unseen by OpenDone (protocols that deliver before
// announcing) are wrapped on first contact.
func (s *shim) Demux(lls xk.Session, m *msg.Msg) error {
	ws, ok := s.w.lookup(lls)
	if !ok {
		ws = s.w.wrapped(lls, s.hlp)
	}
	return s.w.demuxUp(ws, m)
}

// Control forwards upward questions (CtlHLPMaxMsg and friends) to the
// real higher protocol.
func (s *shim) Control(op xk.ControlOp, arg any) (any, error) {
	return s.hlp.Control(op, arg)
}

// wrapSession is the instrumented face of one lower session. It
// reports the wrap as its protocol and keeps its own up pointer, so a
// higher protocol's lls.SetUp(p) rebinds the wrapper, not the inner
// session (whose up stays pointed at the shim).
type wrapSession struct {
	w     *W
	inner xk.Session

	mu sync.Mutex
	up xk.Protocol
}

// Protocol reports the wrap, satisfying identity tests of the form
// lls.Protocol() == p.lowerProtocol in the layer above.
func (ws *wrapSession) Protocol() xk.Protocol { return ws.w }

// Up reports the higher protocol receiving this session's deliveries.
func (ws *wrapSession) Up() xk.Protocol {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.up
}

// SetUp rebinds the higher protocol.
func (ws *wrapSession) SetUp(p xk.Protocol) {
	ws.mu.Lock()
	ws.up = p
	ws.mu.Unlock()
}

// Push carries one message across the boundary downward.
func (ws *wrapSession) Push(m *msg.Msg) error {
	st := ws.w.stats
	st.Pushes.Add(1)
	st.BytesDown.Add(int64(m.Len()))
	if t := ws.w.meter.Tracer(); t != nil {
		t.Emit(ws.w.Name(), EventPush, EnsureMsgID(m), m.Len(), "")
	}
	var sid uint64
	rec := ws.w.meter.Spans()
	if rec.Enabled() {
		sid = rec.BeginMsg(ws.w.Name(), span.DirDown, EnsureMsgID(m), m)
	}
	start := time.Now()
	err := ws.w.pushInner(ws, m)
	st.PushLatency.Observe(time.Since(start))
	if sid != 0 {
		rec.EndMsg(sid, m, span.ErrString(err))
	}
	if err != nil {
		st.Drops.Add(1)
		if t := ws.w.meter.Tracer(); t != nil {
			t.Emit(ws.w.Name(), EventDrop, 0, 0, err.Error())
		}
	}
	return err
}

// Call forwards a synchronous round trip (CHANNEL-style sessions) and
// counts it as one push (request down) plus one pop (reply up), with
// the full round trip observed into the push histogram.
func (ws *wrapSession) Call(m *msg.Msg) (*msg.Msg, error) {
	caller, ok := ws.inner.(interface {
		Call(*msg.Msg) (*msg.Msg, error)
	})
	if !ok {
		return nil, xk.ErrOpNotSupported
	}
	st := ws.w.stats
	st.Pushes.Add(1)
	st.BytesDown.Add(int64(m.Len()))
	t := ws.w.meter.Tracer()
	if t != nil {
		t.Emit(ws.w.Name(), EventCall, EnsureMsgID(m), m.Len(), "")
	}
	var sid uint64
	rec := ws.w.meter.Spans()
	if rec.Enabled() {
		sid = rec.BeginMsg(ws.w.Name(), span.DirCall, EnsureMsgID(m), m)
	}
	start := time.Now()
	reply, err := caller.Call(m)
	st.PushLatency.Observe(time.Since(start))
	// The request message was consumed by the call; the span closes
	// without restoring a current-span attribute on it.
	if sid != 0 {
		rec.EndMsg(sid, nil, span.ErrString(err))
	}
	if err != nil {
		st.Drops.Add(1)
		if t != nil {
			t.Emit(ws.w.Name(), EventDrop, 0, 0, err.Error())
		}
		return nil, err
	}
	st.Pops.Add(1)
	st.BytesUp.Add(int64(reply.Len()))
	if t != nil {
		t.Emit(ws.w.Name(), EventReturn, EnsureMsgID(reply), reply.Len(), "")
	}
	return reply, nil
}

// Pop forwards an explicit pop on the inner session (rare; protocols
// deliver through Demux, which the shim already measures).
func (ws *wrapSession) Pop(lls xk.Session, m *msg.Msg) error {
	return ws.inner.Pop(lls, m)
}

// Control forwards to the inner session.
func (ws *wrapSession) Control(op xk.ControlOp, arg any) (any, error) {
	return ws.inner.Control(op, arg)
}

// Close unregisters the wrapper and closes the inner session.
func (ws *wrapSession) Close() error {
	ws.w.unregister(ws.inner)
	return ws.inner.Close()
}
