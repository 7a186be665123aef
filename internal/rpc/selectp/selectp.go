// Package selectp is SELECT, the top layer of the decomposed Sprite RPC
// (§3.2): "the selection layer maps Sprite commands (procedure ids) onto
// procedure addresses (server processes)". It also owns the caching that
// good RPC performance requires: because Sprite has a fixed, predefined
// number of channels, SELECT keeps a fixed pool of open CHANNEL sessions
// and "simply chooses one of the existing channels when an RPC is
// invoked; it blocks if there are none available". The pool is a
// chanpool.Pool: a call takes the lowest free channel, so a lone caller
// rides one channel, and a caller parks only when every channel is busy,
// to be served in arrival order.
//
// SELECT is a separate protocol rather than a piece of CHANNEL so that
// different procedure-addressing schemes can be swapped in; the package
// also provides the forwarding selection layer the paper mentions having
// built as an alternative (see Forwarder).
//
// The header follows the appendix SELECT_HDR:
//
//	type(1) command(2) status(1)
package selectp

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"xkernel/internal/msg"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/chanpool"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the SELECT_HDR size.
const HeaderLen = 4

// Message types.
const (
	typeRequest uint8 = 0
	typeReply   uint8 = 1
)

// Status codes.
const (
	StatusOK        uint8 = 0
	StatusError     uint8 = 1
	StatusNoCommand uint8 = 2
)

// Handler serves one command.
type Handler func(command uint16, args *msg.Msg) (*msg.Msg, error)

// RemoteError is a server-side failure reported through the status
// field.
type RemoteError struct {
	Status uint8
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("select: remote error (status %d): %s", e.Status, e.Msg)
}

// Config parameterizes the protocol.
type Config struct {
	// NumChannels is the fixed pool of channels per server; zero means
	// 8.
	NumChannels int
	// Proto is SELECT's protocol number relative to the layer below;
	// zero means ip.ProtoSelect.
	Proto ip.ProtoNum
}

func (c *Config) fill() {
	if c.NumChannels == 0 {
		c.NumChannels = 8
	}
	if c.Proto == 0 {
		c.Proto = ip.ProtoSelect
	}
}

// Protocol is the SELECT protocol object.
type Protocol struct {
	xk.BaseProtocol
	cfg Config
	llp xk.Protocol // CHANNEL (or anything channel-shaped)

	// The procedure map is read on every request demux and written only
	// at registration, so it is an immutable snapshot: demux loads it,
	// Register copies it under mu and publishes the copy.
	handlers atomic.Pointer[map[uint16]Handler]
	fallback atomic.Pointer[Handler]
	mu       sync.Mutex

	sessions *pmap.Map // server host(4) → *Session
}

// New creates SELECT above llp and registers to serve incoming requests.
func New(name string, llp xk.Protocol, cfg Config) (*Protocol, error) {
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		sessions:     pmap.New(4),
	}
	p.handlers.Store(&map[uint16]Handler{})
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Register installs the handler for one command (the procedure map).
func (p *Protocol) Register(command uint16, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := maps.Clone(*p.handlers.Load())
	next[command] = h
	p.handlers.Store(&next)
}

// RegisterDefault installs a catch-all handler.
func (p *Protocol) RegisterDefault(h Handler) { p.fallback.Store(&h) }

// PoolFree reports the total number of idle channels across every
// server session's fixed pool.
func (p *Protocol) PoolFree() int64 { return p.poolSum((*chanpool.Pool[caller]).Free) }

// PoolBusy reports the total number of channels currently lent out to
// in-flight calls — the pool-occupancy gauge whose ceiling (NumChannels
// per server) is exactly where a SELECT stack's saturation knee sits.
func (p *Protocol) PoolBusy() int64 { return p.poolSum((*chanpool.Pool[caller]).Busy) }

// poolSum adds f over every server session's pool.
func (p *Protocol) poolSum(f func(*chanpool.Pool[caller]) int) (n int64) {
	p.sessions.Range(func(_ string, s any) bool {
		n += int64(f(s.(*Session).pool))
		return true
	})
	return n
}

// Servers reports how many server sessions (channel pools) are open.
func (p *Protocol) Servers() int64 { return int64(p.sessions.Len()) }

// RegisterGauges adds the pool-occupancy gauges to set under prefix
// ("<prefix>.pool_free", ".pool_busy", ".servers"). A nil set is a
// no-op.
func (p *Protocol) RegisterGauges(set *gauge.Set, prefix string) {
	set.Register(prefix+".pool_free", p.PoolFree)
	set.Register(prefix+".pool_busy", p.PoolBusy)
	set.Register(prefix+".servers", p.Servers)
}

// Control answers capability queries.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMTU:
		v, err := p.llp.Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int) - HeaderLen, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Open returns the (cached) session to a server host, with its fixed
// pool of channels opened underneath. parts: remote=[xk.IPAddr].
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	rp := ps.Remote.Clone()
	remote, err := xk.PopAddr[xk.IPAddr](&rp, "server host")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	return pmap.Open(p.sessions, kb.Bytes(remote[:]).Built(), func() (xk.Session, error) {
		pool, err := chanpool.Open[caller](p.llp, p, p.cfg.Proto, remote, p.cfg.NumChannels)
		if err != nil {
			return nil, err
		}
		trace.Printf(trace.Events, p.Name(), "open server=%s channels=%d", remote, p.cfg.NumChannels)
		s := &Session{p: p, remote: remote, pool: pool}
		s.InitSession(p, hlp)
		return s, nil
	}, func(s xk.Session) { _ = chanpool.Close(s.(*Session).pool) })
}

// OpenDone accepts the server sessions CHANNEL creates passively.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// OpenEnable is not used: constructing the protocol enables service.
// (Present for interface completeness via BaseProtocol.)

// Demux serves an incoming request: map the command to a procedure, run
// it, and push the reply back through the channel it arrived on.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	typ := hb[0]
	command := binary.BigEndian.Uint16(hb[1:3])
	if typ != typeRequest {
		return fmt.Errorf("%s: unexpected type %d: %w", p.Name(), typ, xk.ErrBadHeader)
	}
	h := (*p.handlers.Load())[command]
	if f := p.fallback.Load(); h == nil && f != nil {
		h = *f
	}

	status := StatusOK
	var reply *msg.Msg
	if h == nil {
		status = StatusNoCommand
		//xk:allow hotpathalloc — unknown-command reply, never on the dispatch path
		reply = msg.New([]byte(fmt.Sprintf("no procedure for command %d", command)))
	} else {
		var herr error
		reply, herr = h(command, m)
		if herr != nil {
			status = StatusError
			//xk:allow hotpathalloc — handler-failure reply, error path only
			reply = msg.New([]byte(herr.Error()))
		}
	}
	if reply == nil {
		reply = msg.Empty()
	}
	var out [HeaderLen]byte
	out[0] = typeReply
	binary.BigEndian.PutUint16(out[1:3], command)
	out[3] = status
	reply.MustPush(out[:])
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "served command=%d status=%d", command, status)
	}
	return lls.Push(reply)
}

// caller is a channel-shaped lower session, typed once at Open.
type caller interface {
	xk.Session
	Call(*msg.Msg) (*msg.Msg, error)
}

// Session is a client binding to one server, holding the channel pool.
type Session struct {
	xk.BaseSession
	p      *Protocol
	remote xk.IPAddr
	pool   *chanpool.Pool[caller]
}

// Remote reports the server host.
func (s *Session) Remote() xk.IPAddr { return s.remote }

// Call invokes command with args on the server: grab a channel (blocking
// if all are busy), frame the SELECT header, run the request/reply
// exchange, interpret the status byte.
func (s *Session) Call(command uint16, args *msg.Msg) (*msg.Msg, error) {
	if s.Closed() {
		return nil, xk.ErrClosed
	}
	var hb [HeaderLen]byte
	hb[0] = typeRequest
	binary.BigEndian.PutUint16(hb[1:3], command)
	// Call consumes args: the header goes onto the caller's message.
	args.MustPush(hb[:])

	i, cs := s.pool.Take()
	reply, err := cs.Call(args)
	s.pool.Put(i)
	if err != nil {
		return nil, err
	}
	rb, err := reply.Pop(HeaderLen)
	if err != nil {
		return nil, fmt.Errorf("%s: short reply: %w", s.p.Name(), xk.ErrBadHeader)
	}
	if rb[0] != typeReply {
		return nil, fmt.Errorf("%s: reply type %d: %w", s.p.Name(), rb[0], xk.ErrBadHeader)
	}
	if status := rb[3]; status != StatusOK {
		return nil, &RemoteError{Status: status, Msg: string(reply.Bytes())}
	}
	return reply, nil
}

// CallBytes is Call with plain byte slices.
func (s *Session) CallBytes(command uint16, args []byte) ([]byte, error) {
	reply, err := s.Call(command, msg.New(args))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// Push performs a command-0 call and discards the reply.
func (s *Session) Push(m *msg.Msg) error {
	_, err := s.Call(0, m)
	return err
}

// Pop is unused; incoming traffic flows through the protocol's Demux.
func (s *Session) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control answers pool introspection and size queries.
func (s *Session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.remote, nil
	case xk.CtlFreeChannels:
		return s.pool.Free(), nil
	case xk.CtlGetMTU:
		return s.p.Control(xk.CtlGetMTU, nil)
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Close releases the caller's hold. The last one unbinds the session,
// drains the channel pool, waiting out calls in flight, and closes every
// channel.
func (s *Session) Close() error {
	var kb pmap.Key
	if !s.p.sessions.Release(kb.Bytes(s.remote[:]).Built(), s) {
		return nil
	}
	s.MarkClosed()
	return chanpool.Close(s.pool)
}
