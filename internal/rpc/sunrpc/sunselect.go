package sunrpc

import (
	"fmt"
	"sync"

	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/chanpool"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Accept status codes in SUN_SELECT replies, following the Sun RPC
// accept_stat values.
const (
	StatusSuccess      uint32 = 0
	StatusProgUnavail  uint32 = 1
	StatusProgMismatch uint32 = 2
	StatusProcUnavail  uint32 = 3
	StatusSystemErr    uint32 = 5
)

// Handler serves one ⟨program, version, procedure⟩.
type Handler func(args *msg.Msg) (*msg.Msg, error)

// Caller is the request/reply service SUN_SELECT composes over: CHANNEL
// sessions (at-most-once), REQUEST_REPLY sessions (zero-or-more), and
// auth-layer sessions wrapping either all implement it.
type Caller interface {
	Call(m *msg.Msg) (*msg.Msg, error)
}

// callerSession is a lower session typed once, at Open, as a Caller.
type callerSession interface {
	xk.Session
	Caller
}

// SelectError is a server-reported dispatch failure.
type SelectError struct {
	Status    uint32
	Low, High uint32 // version range, for StatusProgMismatch
	Msg       string
}

func (e *SelectError) Error() string {
	switch e.Status {
	case StatusProgUnavail:
		return "sun_select: program unavailable"
	case StatusProgMismatch:
		return fmt.Sprintf("sun_select: program version mismatch (supported %d-%d)", e.Low, e.High)
	case StatusProcUnavail:
		return "sun_select: procedure unavailable"
	default:
		return "sun_select: " + e.Msg
	}
}

// SelectConfig parameterizes SUN_SELECT.
type SelectConfig struct {
	// NumSessions is the pool of lower request/reply sessions per
	// server; zero means 8.
	NumSessions int
	// Proto is SUN_SELECT's protocol number relative to the layer
	// below; zero means ip.ProtoSunSelect.
	Proto ip.ProtoNum
}

func (c *SelectConfig) fill() {
	if c.NumSessions == 0 {
		c.NumSessions = 8
	}
	if c.Proto == 0 {
		c.Proto = ip.ProtoSunSelect
	}
}

type progVer struct {
	prog, vers uint32
}

// Select is the SUN_SELECT protocol object.
type Select struct {
	xk.BaseProtocol
	cfg SelectConfig
	llp xk.Protocol

	mu       sync.Mutex
	handlers map[progVer]map[uint32]Handler
	sessions *pmap.Map // server host(4) → *SelectSession
}

// NewSelect creates SUN_SELECT above llp — CHANNEL, REQUEST_REPLY, or an
// auth layer wrapping either.
func NewSelect(name string, llp xk.Protocol, cfg SelectConfig) (*Select, error) {
	cfg.fill()
	p := &Select{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		handlers:     make(map[progVer]map[uint32]Handler),
		sessions:     pmap.New(4),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Register installs the handler for one procedure.
func (p *Select) Register(prog, vers, proc uint32, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pv := progVer{prog, vers}
	if p.handlers[pv] == nil {
		p.handlers[pv] = make(map[uint32]Handler)
	}
	p.handlers[pv][proc] = h
}

// lookup resolves a call to a handler or a failure status.
func (p *Select) lookup(prog, vers, proc uint32) (Handler, *SelectError) {
	p.mu.Lock()
	defer p.mu.Unlock()
	procs, ok := p.handlers[progVer{prog, vers}]
	if !ok {
		low, high := uint32(0), uint32(0)
		found := false
		for pv := range p.handlers {
			if pv.prog != prog {
				continue
			}
			if !found || pv.vers < low {
				low = pv.vers
			}
			if !found || pv.vers > high {
				high = pv.vers
			}
			found = true
		}
		if found {
			return nil, &SelectError{Status: StatusProgMismatch, Low: low, High: high}
		}
		return nil, &SelectError{Status: StatusProgUnavail}
	}
	h, ok := procs[proc]
	if !ok {
		return nil, &SelectError{Status: StatusProcUnavail}
	}
	return h, nil
}

// OpenDone accepts server sessions created passively below.
func (p *Select) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Control forwards size queries downward.
func (p *Select) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMTU, xk.CtlHLPMaxMsg:
		return p.llp.Control(op, arg)
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Open returns the (cached) session to a server. parts:
// remote=[xk.IPAddr].
func (p *Select) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	rp := ps.Remote.Clone()
	remote, err := xk.PopAddr[xk.IPAddr](&rp, "server host")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	return pmap.Open(p.sessions, kb.Bytes(remote[:]).Built(), func() (xk.Session, error) {
		pool, err := chanpool.Open[callerSession](p.llp, p, p.cfg.Proto, remote, p.cfg.NumSessions)
		if err != nil {
			return nil, err
		}
		trace.Printf(trace.Events, p.Name(), "open server=%s sessions=%d", remote, p.cfg.NumSessions)
		s := &SelectSession{p: p, remote: remote, pool: pool}
		s.InitSession(p, hlp)
		return s, nil
	}, func(s xk.Session) { _ = chanpool.Close(s.(*SelectSession).pool) })
}

// Demux serves an incoming call: decode the XDR call header, dispatch,
// reply through the lower server session.
func (p *Select) Demux(lls xk.Session, m *msg.Msg) error {
	prog, vers, proc, err := decodeCallHeader(m)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), err)
	}
	h, serr := p.lookup(prog, vers, proc)
	var reply *msg.Msg
	if serr == nil {
		var herr error
		reply, herr = h(m)
		if herr != nil {
			//xk:allow hotpathalloc — handler-failure record, error path only
			serr = &SelectError{Status: StatusSystemErr, Msg: herr.Error()}
		}
	}
	if reply == nil {
		reply = msg.Empty()
	}
	out := encodeReplyHeader(serr)
	if serr == nil {
		out.Join(reply)
	} else {
		if trace.Enabled(trace.Events) {
			trace.Printf(trace.Events, p.Name(), "call %d/%d/%d failed: %v", prog, vers, proc, serr)
		}
	}
	return lls.Push(out)
}

// SelectSession is the client binding to one server.
type SelectSession struct {
	xk.BaseSession
	p      *Select
	remote xk.IPAddr
	pool   *chanpool.Pool[callerSession]
}

// Remote reports the server host.
func (s *SelectSession) Remote() xk.IPAddr { return s.remote }

// Call invokes ⟨prog, vers, proc⟩ with args on the server.
func (s *SelectSession) Call(prog, vers, proc uint32, args *msg.Msg) (*msg.Msg, error) {
	if s.Closed() {
		return nil, xk.ErrClosed
	}
	out := encodeCallHeader(prog, vers, proc)
	out.Join(args)
	i, c := s.pool.Take()
	reply, err := c.Call(out)
	s.pool.Put(i)
	if err != nil {
		return nil, err
	}
	return decodeReplyHeader(reply)
}

// CallBytes is Call with byte-slice payloads.
func (s *SelectSession) CallBytes(prog, vers, proc uint32, args []byte) ([]byte, error) {
	reply, err := s.Call(prog, vers, proc, msg.New(args))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// Push performs procedure 0 of program 0 version 0 and discards the
// reply — present for uniform-interface completeness.
func (s *SelectSession) Push(m *msg.Msg) error {
	_, err := s.Call(0, 0, 0, m)
	return err
}

// Pop is unused; the protocol's Demux consumes incoming traffic.
func (s *SelectSession) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters.
func (s *SelectSession) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.remote, nil
	case xk.CtlFreeChannels:
		return s.pool.Free(), nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Close releases the caller's hold. The last one unbinds the session,
// drains the pool, waiting out calls in flight, and closes every lower
// session.
func (s *SelectSession) Close() error {
	var kb pmap.Key
	if !s.p.sessions.Release(kb.Bytes(s.remote[:]).Built(), s) {
		return nil
	}
	s.MarkClosed()
	return chanpool.Close(s.pool)
}
