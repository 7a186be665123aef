package vip

import (
	"fmt"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/eth"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// This file implements the generalization §3.1 sketches: "A more
// general solution would be to maintain a table of hosts on the local
// network that support VIP. This table could be dynamically maintained
// by running a broadcast-based protocol that advertises the protocols
// that a given host supports; this approach is currently used in
// 4.3BSD Unix to determine if trailers may be used."
//
// Announcer broadcasts this host's VIP-reachable protocol numbers;
// Directory collects the announcements heard on the wire. A VIP given a
// Directory (SetDirectory) consults the table at open time instead of
// probing with ARP: a listed peer is local (and the table already
// knows its hardware address), an unlisted peer goes through IP
// immediately — no ARP timeout, and no assumption that every host on
// the ethernet runs VIP.

// announceType is the ethernet type the advertisement protocol runs on
// (outside VIP's mapped range).
const announceType eth.Type = 0x3FF0

// dirEntry is one host's advertisement.
type dirEntry struct {
	hw     xk.EthAddr
	protos map[ip.ProtoNum]bool
	seen   time.Time
}

// Directory is the table of VIP-speaking hosts on the local network.
type Directory struct {
	clock event.Clock
	ttl   time.Duration

	mu    sync.Mutex
	table map[xk.IPAddr]*dirEntry
}

// NewDirectory creates an empty table whose entries expire after ttl
// (zero means 5 minutes).
func NewDirectory(clock event.Clock, ttl time.Duration) *Directory {
	if clock == nil {
		clock = event.Real()
	}
	if ttl == 0 {
		ttl = 5 * time.Minute
	}
	return &Directory{clock: clock, ttl: ttl, table: make(map[xk.IPAddr]*dirEntry)}
}

// Record stores an advertisement.
func (d *Directory) Record(host xk.IPAddr, hw xk.EthAddr, protos []ip.ProtoNum) {
	e := &dirEntry{hw: hw, protos: make(map[ip.ProtoNum]bool, len(protos)), seen: d.clock.Now()}
	for _, p := range protos {
		e.protos[p] = true
	}
	d.mu.Lock()
	d.table[host] = e
	d.mu.Unlock()
}

// Lookup reports whether host advertised VIP support for proto recently
// enough, and its hardware address.
func (d *Directory) Lookup(host xk.IPAddr, proto ip.ProtoNum) (xk.EthAddr, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.table[host]
	if !ok || !e.protos[proto] {
		return xk.EthAddr{}, false
	}
	if d.clock.Now().Sub(e.seen) > d.ttl {
		delete(d.table, host)
		return xk.EthAddr{}, false
	}
	return e.hw, true
}

// Hosts lists the currently known hosts.
func (d *Directory) Hosts() []xk.IPAddr {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]xk.IPAddr, 0, len(d.table))
	for h := range d.table {
		out = append(out, h)
	}
	return out
}

// Announcer broadcasts and collects VIP advertisements on one ethernet.
type Announcer struct {
	xk.BaseProtocol
	dir    *Directory
	bcast  xk.Session
	myIP   xk.IPAddr
	myEth  xk.EthAddr
	protos []ip.ProtoNum

	clock    event.Clock
	interval time.Duration
	mu       sync.Mutex
	ticker   *event.Event
	stopped  bool
}

// NewAnnouncer creates the advertisement protocol on ethp, announcing
// that this host (myIP) accepts the given protocol numbers over VIP,
// re-broadcasting every interval (zero disables periodic announcements;
// call Announce explicitly). It both feeds and serves dir.
func NewAnnouncer(name string, ethp xk.Protocol, myIP xk.IPAddr, protos []ip.ProtoNum, dir *Directory, interval time.Duration, clock event.Clock) (*Announcer, error) {
	if clock == nil {
		clock = event.Real()
	}
	a := &Announcer{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		dir:          dir,
		myIP:         myIP,
		protos:       append([]ip.ProtoNum(nil), protos...),
		clock:        clock,
		interval:     interval,
	}
	v, err := ethp.Control(xk.CtlGetMyHost, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: my address: %w", name, err)
	}
	a.myEth = v.(xk.EthAddr)

	a.bcast, err = ethp.Open(a, xk.NewParticipants(
		xk.NewParticipant(announceType),
		xk.NewParticipant(xk.BroadcastEth),
	))
	if err != nil {
		return nil, fmt.Errorf("%s: broadcast session: %w", name, err)
	}
	if err := ethp.OpenEnable(a, xk.LocalOnly(xk.NewParticipant(announceType))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	if interval > 0 {
		a.schedule()
	}
	return a, nil
}

func (a *Announcer) schedule() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return
	}
	// Armed under a.mu so Stop cannot miss a ticker created concurrently.
	//xk:allow locksafety — Schedule only enqueues; the rearm callback takes a.mu on a later event dispatch
	a.ticker = a.clock.Schedule(a.interval, func() {
		if err := a.Announce(); err != nil {
			trace.Printf(trace.Events, a.Name(), "announce: %v", err)
		}
		a.schedule()
	})
}

// Stop ends periodic announcements.
func (a *Announcer) Stop() {
	a.mu.Lock()
	a.stopped = true
	if a.ticker != nil {
		//xk:allow locksafety — Cancel is a non-blocking flag; it never waits for a running handler
		a.ticker.Cancel()
	}
	a.mu.Unlock()
}

// Announce broadcasts this host's advertisement immediately.
// Packet layout: ip(4) hw(6) n(1) proto(1)×n.
func (a *Announcer) Announce() error {
	b := make([]byte, 0, 11+len(a.protos))
	b = append(b, a.myIP[:]...)
	b = append(b, a.myEth[:]...)
	b = append(b, byte(len(a.protos)))
	for _, p := range a.protos {
		b = append(b, byte(p))
	}
	trace.Printf(trace.Events, a.Name(), "advertising %d protocols", len(a.protos))
	return a.bcast.Push(msg.New(b))
}

// OpenDone accepts passively created ethernet sessions.
func (a *Announcer) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux records a heard advertisement.
func (a *Announcer) Demux(lls xk.Session, m *msg.Msg) error {
	b := m.Bytes()
	if len(b) < 11 {
		return fmt.Errorf("%s: %w", a.Name(), xk.ErrBadHeader)
	}
	var host xk.IPAddr
	var hw xk.EthAddr
	copy(host[:], b[0:4])
	copy(hw[:], b[4:10])
	n := int(b[10])
	if len(b) < 11+n {
		return fmt.Errorf("%s: %w", a.Name(), xk.ErrBadHeader)
	}
	//xk:allow hotpathalloc — announcements are control-plane traffic, one per interval, not per data message
	protos := make([]ip.ProtoNum, n)
	for i := 0; i < n; i++ {
		protos[i] = ip.ProtoNum(b[11+i])
	}
	if host != a.myIP {
		a.dir.Record(host, hw, protos)
		if trace.Enabled(trace.Events) {
			trace.Printf(trace.Events, a.Name(), "learned %s (%d protocols)", host, n)
		}
	}
	return nil
}
