package selectp

import (
	"fmt"
	"sync"

	"xkernel/internal/msg"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Forwarder is the alternative selection layer the paper reports
// building (§3.2): instead of mapping commands onto local procedures,
// it maps command ranges onto *other servers* and relays request and
// reply. It is wire-compatible with SELECT — clients cannot tell
// whether they reached a procedure or a forwarder — which is exactly
// why procedure selection had to be its own protocol: "the reason for
// separating SELECT into a separate protocol, rather than embedding it
// in CHANNEL, is that we want to be able to support multiple schemes
// for addressing procedures."
type Forwarder struct {
	xk.BaseProtocol
	cfg    Config
	client *Protocol // SELECT client side for talking to backends

	mu     sync.Mutex
	routes []fwdRoute
}

type fwdRoute struct {
	lo, hi  uint16
	backend xk.IPAddr
	// parts is the Open argument for this backend, built once at
	// AddRoute so Demux does not allocate it per forwarded call.
	parts *xk.Participants
}

// NewForwarder creates a forwarding selection layer above llp
// (CHANNEL-shaped). It takes over the SELECT protocol number on llp, so
// a host runs either a SELECT or a Forwarder on a given number, not
// both.
func NewForwarder(name string, llp xk.Protocol, cfg Config) (*Forwarder, error) {
	cfg.fill()
	inner, err := New(name+"/client", llp, cfg)
	if err != nil {
		return nil, err
	}
	f := &Forwarder{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		client:       inner,
	}
	// Rebind the enable from the inner SELECT to the forwarder:
	// incoming requests are ours to route, outgoing calls still flow
	// through the inner client machinery.
	if err := llp.OpenEnable(f, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return f, nil
}

// AddRoute forwards commands in [lo, hi] to backend. Later routes win
// on overlap.
func (f *Forwarder) AddRoute(lo, hi uint16, backend xk.IPAddr) {
	f.mu.Lock()
	f.routes = append(f.routes, fwdRoute{
		lo: lo, hi: hi, backend: backend,
		parts: &xk.Participants{Remote: xk.NewParticipant(backend)},
	})
	f.mu.Unlock()
}

func (f *Forwarder) lookup(cmd uint16) (fwdRoute, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.routes) - 1; i >= 0; i-- {
		r := f.routes[i]
		if cmd >= r.lo && cmd <= r.hi {
			return r, true
		}
	}
	return fwdRoute{}, false
}

// OpenDone accepts the server sessions CHANNEL creates for incoming
// requests.
func (f *Forwarder) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux routes one incoming request: decode the SELECT header, pick the
// backend, relay through a (cached) SELECT client session, and push the
// backend's reply — or the routing failure — back to the caller.
func (f *Forwarder) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", f.Name(), xk.ErrBadHeader)
	}
	if hb[0] != typeRequest {
		return fmt.Errorf("%s: unexpected type %d: %w", f.Name(), hb[0], xk.ErrBadHeader)
	}
	command := uint16(hb[1])<<8 | uint16(hb[2])

	status := StatusOK
	var reply *msg.Msg
	route, ok := f.lookup(command)
	if !ok {
		status = StatusNoCommand
		//xk:allow hotpathalloc — routing-failure reply, never on the forwarding path
		reply = msg.New([]byte(fmt.Sprintf("no route for command %d", command)))
	} else {
		sess, err := f.client.Open(f, route.parts)
		if err != nil {
			status = StatusError
			//xk:allow hotpathalloc — backend-unreachable reply, error path only
			reply = msg.New([]byte(err.Error()))
		} else {
			if trace.Enabled(trace.Events) {
				trace.Printf(trace.Events, f.Name(), "forward command=%d to %s", command, route.backend)
			}
			reply, err = sess.(*Session).Call(command, m)
			if err != nil {
				// Backend-reported failures travel back with their
				// status; transport failures become StatusError.
				if re, okErr := err.(*RemoteError); okErr {
					status = re.Status
					//xk:allow hotpathalloc — relaying a backend failure, error path only
					reply = msg.New([]byte(re.Msg))
				} else {
					status = StatusError
					//xk:allow hotpathalloc — transport-failure reply, error path only
					reply = msg.New([]byte(err.Error()))
				}
			}
		}
	}
	if reply == nil {
		reply = msg.Empty()
	}
	var out [HeaderLen]byte
	out[0] = typeReply
	out[1], out[2] = byte(command>>8), byte(command)
	out[3] = status
	reply.MustPush(out[:])
	return lls.Push(reply)
}

// Control answers size queries like SELECT.
func (f *Forwarder) Control(op xk.ControlOp, arg any) (any, error) {
	return f.client.Control(op, arg)
}
