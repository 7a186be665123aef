// Package auth is the library of optional authentication protocol
// layers from §5 ("Mix and Match RPCs"): "layering provides a natural
// methodology for inserting or removing optional sub-pieces such as
// authentication. Much of the complexity in the Sun RPC code concerns
// the optional authentication component."
//
// A Layer composes between SUN_SELECT and a request/reply protocol
// (REQUEST_REPLY or CHANNEL). On the client side it prepends a
// credential to every call; on the server side it verifies and strips
// the credential, attaches the caller's identity to the message, and
// passes the call upward. Authentication failures surface as errors
// from Demux, which the request/reply layer below reports to the client
// as a remote error — the call never reaches the procedure.
//
// Three mechanisms mirror the classic Sun RPC flavors:
//
//   - None: an empty credential. Composing this layer (or no layer at
//     all) is the zero-cost end of the option spectrum.
//   - Sys (AUTH_SYS): machine name, uid, gids, checked by a server
//     policy callback.
//   - Digest: an HMAC-SHA256 over the call payload under a shared key,
//     with the reply MACed in the other direction too.
//
// Both ends must compose the same stack: "applications must agree to
// use a particular protocol stack" (§5).
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"xkernel/internal/msg"
	"xkernel/internal/rpc/xdr"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Flavor numbers, following Sun RPC's auth_flavor.
const (
	FlavorNone   uint32 = 0
	FlavorSys    uint32 = 1
	FlavorDigest uint32 = 100 // private-range flavor for the keyed MAC
)

// ErrRejected is wrapped by every verification failure.
var ErrRejected = errors.New("auth: credential rejected")

// Identity is the authenticated caller as seen by the server.
type Identity struct {
	Flavor  uint32
	Machine string
	UID     uint32
	GIDs    []uint32
}

// IdentityAttr is the message attribute carrying the verified Identity
// upward to handlers.
const IdentityAttr msg.AttrKey = 0x41555448 // "AUTH"

// Mechanism produces and verifies credentials. Client and server sides
// of a deployment instantiate the same mechanism type (with their own
// parameters).
type Mechanism interface {
	// Flavor identifies the mechanism on the wire.
	Flavor() uint32
	// MakeCred builds the credential for an outgoing call payload.
	MakeCred(payload []byte) ([]byte, error)
	// VerifyCred checks an incoming credential against the payload.
	VerifyCred(cred, payload []byte) (Identity, error)
	// MakeVerf builds the reply verifier for an outgoing reply (may
	// be empty).
	MakeVerf(payload []byte) ([]byte, error)
	// VerifyVerf checks a reply verifier.
	VerifyVerf(verf, payload []byte) error
}

// None is the empty credential.
type None struct{}

// Flavor implements Mechanism.
func (None) Flavor() uint32 { return FlavorNone }

// MakeCred implements Mechanism.
func (None) MakeCred([]byte) ([]byte, error) { return nil, nil }

// VerifyCred implements Mechanism.
func (None) VerifyCred(cred, _ []byte) (Identity, error) {
	if len(cred) != 0 {
		return Identity{}, fmt.Errorf("%w: unexpected AUTH_NONE body", ErrRejected)
	}
	return Identity{Flavor: FlavorNone}, nil
}

// MakeVerf implements Mechanism.
func (None) MakeVerf([]byte) ([]byte, error) { return nil, nil }

// VerifyVerf implements Mechanism.
func (None) VerifyVerf(verf, _ []byte) error {
	if len(verf) != 0 {
		return fmt.Errorf("%w: unexpected AUTH_NONE verifier", ErrRejected)
	}
	return nil
}

// Sys is the AUTH_SYS-style credential: asserted identity, checked by a
// server-side policy.
type Sys struct {
	// Client-side identity asserted on outgoing calls.
	Machine string
	UID     uint32
	GIDs    []uint32
	// Policy, when non-nil, accepts or rejects verified identities on
	// the server side. A nil policy accepts everyone (classic
	// AUTH_SYS trust).
	Policy func(Identity) error
}

// Flavor implements Mechanism.
func (*Sys) Flavor() uint32 { return FlavorSys }

// MakeCred implements Mechanism.
func (s *Sys) MakeCred([]byte) ([]byte, error) {
	e := xdr.NewEncoder(64)
	e.String(s.Machine).Uint32(s.UID).Uint32Slice(s.GIDs)
	return e.Bytes(), nil
}

// VerifyCred implements Mechanism.
func (s *Sys) VerifyCred(cred, _ []byte) (Identity, error) {
	d := xdr.NewDecoder(cred)
	machine, err := d.String()
	if err != nil {
		return Identity{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	uid, err := d.Uint32()
	if err != nil {
		return Identity{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	gids, err := d.Uint32Slice()
	if err != nil {
		return Identity{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	id := Identity{Flavor: FlavorSys, Machine: machine, UID: uid, GIDs: gids}
	if s.Policy != nil {
		if err := s.Policy(id); err != nil {
			return Identity{}, fmt.Errorf("%w: %v", ErrRejected, err)
		}
	}
	return id, nil
}

// MakeVerf implements Mechanism.
func (*Sys) MakeVerf([]byte) ([]byte, error) { return nil, nil }

// VerifyVerf implements Mechanism.
func (*Sys) VerifyVerf(verf, _ []byte) error { return nil }

// Digest authenticates payloads with an HMAC-SHA256 under a shared key,
// in both directions.
type Digest struct {
	Key []byte
	// Name tags the identity delivered to handlers.
	Name string
}

// Flavor implements Mechanism.
func (*Digest) Flavor() uint32 { return FlavorDigest }

func (d *Digest) mac(payload []byte) []byte {
	h := hmac.New(sha256.New, d.Key)
	h.Write(payload)
	return h.Sum(nil)
}

// MakeCred implements Mechanism.
func (d *Digest) MakeCred(payload []byte) ([]byte, error) {
	e := xdr.NewEncoder(64)
	e.String(d.Name).Opaque(d.mac(payload))
	return e.Bytes(), nil
}

// VerifyCred implements Mechanism.
func (d *Digest) VerifyCred(cred, payload []byte) (Identity, error) {
	dec := xdr.NewDecoder(cred)
	name, err := dec.String()
	if err != nil {
		return Identity{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	mac, err := dec.Opaque()
	if err != nil {
		return Identity{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if !hmac.Equal(mac, d.mac(payload)) {
		return Identity{}, fmt.Errorf("%w: bad digest for %q", ErrRejected, name)
	}
	return Identity{Flavor: FlavorDigest, Machine: name}, nil
}

// MakeVerf implements Mechanism.
func (d *Digest) MakeVerf(payload []byte) ([]byte, error) {
	return d.mac(payload), nil
}

// VerifyVerf implements Mechanism.
func (d *Digest) VerifyVerf(verf, payload []byte) error {
	if !hmac.Equal(verf, d.mac(payload)) {
		return fmt.Errorf("%w: bad reply digest", ErrRejected)
	}
	return nil
}

// Layer is one composable authentication layer. It is transparent with
// respect to participants and protocol numbers: it forwards opens and
// enables unchanged, adding only its credential header to moving
// messages.
type Layer struct {
	xk.BaseProtocol
	llp  xk.Protocol
	mech Mechanism

	mu       sync.Mutex
	sessions map[xk.Session]*serverSession
	up       xk.Protocol
}

// NewLayer builds an auth layer over llp using mech.
func NewLayer(name string, llp xk.Protocol, mech Mechanism) *Layer {
	return &Layer{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		llp:          llp,
		mech:         mech,
		sessions:     make(map[xk.Session]*serverSession),
	}
}

// header is the wire credential: XDR flavor + opaque body.
func (l *Layer) encodeCred(body []byte) []byte {
	e := xdr.NewEncoder(16 + len(body))
	e.Uint32(l.mech.Flavor()).Opaque(body)
	return e.Bytes()
}

func (l *Layer) decodeCred(m *msg.Msg) ([]byte, error) {
	// Peek the flavor and length words, then pop the exact size.
	head, err := m.Peek(8)
	if err != nil {
		return nil, xk.ErrBadHeader
	}
	d := xdr.NewDecoder(head)
	flavor, _ := d.Uint32() //xk:allow errflow — head is 8 bytes by the Peek above; these two words cannot underflow
	n, _ := d.Uint32()
	if flavor != l.mech.Flavor() {
		return nil, fmt.Errorf("%w: flavor %d, want %d", ErrRejected, flavor, l.mech.Flavor())
	}
	padded := (int(n) + 3) &^ 3
	full, err := m.Pop(8 + padded)
	if err != nil {
		return nil, xk.ErrBadHeader
	}
	return full[8 : 8+int(n)], nil
}

// Open opens the lower session and wraps it in a credential-adding
// session.
func (l *Layer) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	lls, err := l.llp.Open(l, ps)
	if err != nil {
		return nil, err
	}
	c, ok := lls.(interface {
		Call(m *msg.Msg) (*msg.Msg, error)
	})
	if !ok {
		return nil, fmt.Errorf("%s: %s sessions cannot call", l.Name(), l.llp.Name())
	}
	s := &clientSession{l: l, caller: c}
	s.InitSession(l, hlp, lls)
	return s, nil
}

// OpenEnable interposes the layer on the passive side.
func (l *Layer) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	l.mu.Lock()
	l.up = hlp
	l.mu.Unlock()
	return l.llp.OpenEnable(l, ps)
}

// OpenDisable revokes the enable below.
func (l *Layer) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	return l.llp.OpenDisable(l, ps)
}

// OpenDone accepts passively created lower sessions; wrapping happens at
// first demux.
func (l *Layer) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Control forwards everything.
func (l *Layer) Control(op xk.ControlOp, arg any) (any, error) {
	return l.llp.Control(op, arg)
}

// Demux verifies and strips the credential on the server side, then
// delivers the call upward with the identity attached.
func (l *Layer) Demux(lls xk.Session, m *msg.Msg) error {
	cred, err := l.decodeCred(m)
	if err != nil {
		return err
	}
	id, err := l.mech.VerifyCred(cred, m.Bytes())
	if err != nil {
		trace.Printf(trace.Events, l.Name(), "rejected call: %v", err)
		return err
	}
	m.SetAttr(IdentityAttr, id)

	l.mu.Lock()
	ss, ok := l.sessions[lls]
	up := l.up
	l.mu.Unlock()
	if !ok {
		if up == nil {
			return fmt.Errorf("%s: %w", l.Name(), xk.ErrNoSession)
		}
		//xk:allow hotpathalloc — session establishment, once per peer, not per message
		ss = &serverSession{l: l}
		ss.InitSession(l, up, lls)
		l.mu.Lock()
		l.sessions[lls] = ss
		l.mu.Unlock()
		//xk:allow hotpathalloc — session establishment, once per peer, not per message
		if err := up.OpenDone(l, ss, &xk.Participants{}); err != nil {
			return err
		}
	}
	upp := ss.Up()
	if upp == nil {
		return fmt.Errorf("%s: %w", l.Name(), xk.ErrNoSession)
	}
	return upp.Demux(ss, m)
}

// clientSession adds the credential to calls and checks reply verifiers.
type clientSession struct {
	xk.BaseSession
	l      *Layer
	caller interface {
		Call(m *msg.Msg) (*msg.Msg, error)
	}
}

// Call implements the request/reply interface SUN_SELECT composes over.
// It consumes m: the credential goes onto m itself.
func (s *clientSession) Call(m *msg.Msg) (*msg.Msg, error) {
	cred, err := s.l.mech.MakeCred(m.Bytes())
	if err != nil {
		return nil, err
	}
	m.MustPush(s.l.encodeCred(cred))
	reply, err := s.caller.Call(m)
	if err != nil {
		return nil, err
	}
	// Strip and check the reply verifier.
	verf, err := s.l.decodeCred(reply)
	if err != nil {
		return nil, err
	}
	if err := s.l.mech.VerifyVerf(verf, reply.Bytes()); err != nil {
		return nil, err
	}
	return reply, nil
}

// Push is a call with the reply discarded.
func (s *clientSession) Push(m *msg.Msg) error {
	_, err := s.Call(m)
	return err
}

// serverSession passes replies back down, adding the reply verifier.
type serverSession struct {
	xk.BaseSession
	l *Layer
}

// Push sends a reply through the layer: verifier first, then down.
func (s *serverSession) Push(m *msg.Msg) error {
	verf, err := s.l.mech.MakeVerf(m.Bytes())
	if err != nil {
		return err
	}
	m.MustPush(s.l.encodeCred(verf))
	return s.Down(0).Push(m)
}

// Pop is unused.
func (s *serverSession) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.l.Name(), xk.ErrOpNotSupported)
}
