// Package arp implements the Address Resolution Protocol. Besides serving
// IP's next-hop resolution, ARP is load-bearing for the paper's first
// design technique: VIP "decides if the destination host is reachable via
// the ethernet by trying to resolve the IP address using ARP. If ARP can
// resolve the address, then the destination host must be on the local
// ethernet; otherwise, the destination is not on the local network"
// (§3.1). Resolution failure — timeout after retries — is therefore a
// meaningful, expected outcome here, not just an error path.
package arp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/eth"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// packetLen is the ARP packet size for ethernet/IP:
// htype(2) ptype(2) hlen(1) plen(1) op(2) sha(6) spa(4) tha(6) tpa(4).
const packetLen = 28

// Operations.
const (
	opRequest uint16 = 1
	opReply   uint16 = 2
)

// Config parameterizes resolution patience. The defaults suit the
// synchronous simulator, where a resolvable address answers before the
// request send returns and an unresolvable one costs Retries×Timeout at
// open time only (sessions are cached).
type Config struct {
	// Timeout is the per-attempt wait for a reply.
	Timeout time.Duration
	// Retries is the number of requests sent before giving up.
	Retries int
	// Clock drives the retry timers; nil means the real clock.
	Clock event.Clock
}

func (c *Config) fill() {
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
}

// Protocol is the ARP protocol object.
type Protocol struct {
	xk.BaseProtocol
	cfg   Config
	llp   xk.Protocol // the ethernet protocol
	bcast xk.Session  // broadcast session: sends requests, hears everything
	myIP  xk.IPAddr
	myEth xk.EthAddr

	mu      sync.Mutex
	cache   map[xk.IPAddr]xk.EthAddr
	pending map[xk.IPAddr]chan struct{}
}

// New creates the ARP protocol for the host (myIP, on llp's wire),
// opening its broadcast session and enable binding on llp.
func New(name string, llp xk.Protocol, myIP xk.IPAddr, cfg Config) (*Protocol, error) {
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		myIP:         myIP,
		cache:        make(map[xk.IPAddr]xk.EthAddr),
		pending:      make(map[xk.IPAddr]chan struct{}),
	}
	v, err := llp.Control(xk.CtlGetMyHost, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: get host address: %w", name, err)
	}
	p.myEth = v.(xk.EthAddr)

	ps := xk.NewParticipants(
		xk.NewParticipant(eth.Type(eth.TypeARP)),
		xk.NewParticipant(xk.BroadcastEth),
	)
	p.bcast, err = llp.Open(p, ps)
	if err != nil {
		return nil, fmt.Errorf("%s: open broadcast session: %w", name, err)
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(eth.Type(eth.TypeARP)))); err != nil {
		return nil, fmt.Errorf("%s: open_enable: %w", name, err)
	}
	return p, nil
}

// OpenDone accepts ethernet sessions passively created for unicast ARP
// traffic.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Control implements CtlResolve (arg xk.IPAddr → xk.EthAddr) and
// CtlGetMyHost.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlResolve:
		ip, ok := arg.(xk.IPAddr)
		if !ok {
			return nil, fmt.Errorf("%s: resolve wants IPAddr, got %T", p.Name(), arg)
		}
		return p.Resolve(ip)
	case xk.CtlGetMyHost:
		return p.myIP, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// AddEntry installs a static cache entry (tests, proxy-ARP setups).
func (p *Protocol) AddEntry(ip xk.IPAddr, hw xk.EthAddr) {
	p.mu.Lock()
	p.cache[ip] = hw
	p.mu.Unlock()
}

// Entries snapshots the resolution cache; VIP uses it to reverse-map a
// hardware address to the peer's internet address.
func (p *Protocol) Entries() map[xk.IPAddr]xk.EthAddr {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[xk.IPAddr]xk.EthAddr, len(p.cache))
	for k, v := range p.cache {
		out[k] = v
	}
	return out
}

// Lookup consults the cache without generating traffic.
func (p *Protocol) Lookup(ip xk.IPAddr) (xk.EthAddr, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hw, ok := p.cache[ip]
	return hw, ok
}

// Resolve maps ip to a hardware address, broadcasting requests and
// waiting for a reply. It returns xk.ErrTimeout when the host does not
// answer — the signal VIP interprets as "not on the local network".
func (p *Protocol) Resolve(ip xk.IPAddr) (xk.EthAddr, error) {
	if ip == p.myIP {
		return p.myEth, nil
	}
	p.mu.Lock()
	if hw, ok := p.cache[ip]; ok {
		p.mu.Unlock()
		return hw, nil
	}
	done, inFlight := p.pending[ip]
	if !inFlight {
		done = make(chan struct{})
		p.pending[ip] = done
	}
	p.mu.Unlock()

	for attempt := 0; attempt < p.cfg.Retries; attempt++ {
		if !inFlight {
			if err := p.sendRequest(ip); err != nil {
				return xk.EthAddr{}, err
			}
		}
		// The synchronous simulator may have answered during the send.
		p.mu.Lock()
		if hw, ok := p.cache[ip]; ok {
			p.mu.Unlock()
			return hw, nil
		}
		p.mu.Unlock()

		timeout := make(chan struct{})
		ev := p.cfg.Clock.Schedule(p.cfg.Timeout, func() { close(timeout) })
		select {
		case <-done:
			ev.Cancel()
			p.mu.Lock()
			hw, ok := p.cache[ip]
			p.mu.Unlock()
			if ok {
				return hw, nil
			}
		case <-timeout:
		}
	}
	p.mu.Lock()
	if p.pending[ip] == done {
		delete(p.pending, ip)
	}
	p.mu.Unlock()
	trace.Printf(trace.Events, p.Name(), "resolve %s: no answer (not local)", ip)
	return xk.EthAddr{}, fmt.Errorf("%s: resolve %s: %w", p.Name(), ip, xk.ErrTimeout)
}

func (p *Protocol) sendRequest(ip xk.IPAddr) error {
	trace.Printf(trace.Events, p.Name(), "who-has %s tell %s", ip, p.myIP)
	return p.bcast.Push(p.packet(opRequest, xk.EthAddr{}, ip))
}

// packet builds an ARP packet as a message.
func (p *Protocol) packet(op uint16, tha xk.EthAddr, tpa xk.IPAddr) *msg.Msg {
	b := make([]byte, packetLen)
	binary.BigEndian.PutUint16(b[0:2], 1)      // htype: ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // ptype: IP
	b[4], b[5] = 6, 4
	binary.BigEndian.PutUint16(b[6:8], op)
	copy(b[8:14], p.myEth[:])
	copy(b[14:18], p.myIP[:])
	copy(b[18:24], tha[:])
	copy(b[24:28], tpa[:])
	return msg.New(b)
}

// Demux handles incoming ARP packets: learn the sender's mapping, answer
// requests for our address, and complete pending resolutions.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	b, err := m.Pop(packetLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	op := binary.BigEndian.Uint16(b[6:8])
	var sha xk.EthAddr
	var spa, tpa xk.IPAddr
	copy(sha[:], b[8:14])
	copy(spa[:], b[14:18])
	copy(tpa[:], b[24:28])

	// Learn the sender's binding and release any waiters.
	p.mu.Lock()
	p.cache[spa] = sha
	if done, ok := p.pending[spa]; ok {
		close(done)
		delete(p.pending, spa)
	}
	p.mu.Unlock()

	if op == opRequest && tpa == p.myIP {
		if trace.Enabled(trace.Events) {
			trace.Printf(trace.Events, p.Name(), "%s is-at %s (answering %s)", p.myIP, p.myEth, spa)
		}
		return p.reply(sha, spa)
	}
	return nil
}

// reply answers a request with a unicast reply through a (cached)
// ethernet session to the requester.
func (p *Protocol) reply(requester xk.EthAddr, requesterIP xk.IPAddr) error {
	ps := xk.NewParticipants(
		xk.NewParticipant(eth.Type(eth.TypeARP)),
		xk.NewParticipant(requester),
	)
	s, err := p.llp.Open(p, ps)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.Push(p.packet(opReply, requester, requesterIP))
}
