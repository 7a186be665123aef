// Package stacks assembles protocol graphs into hosts: it plays the role
// of the x-kernel's configuration step, where "the relationships between
// protocols are defined at the time a kernel is configured" (§2). Tests,
// the benchmark harness, the examples and the public facade all build
// their hosts here so every experiment runs the same wiring: NewHost
// makes the base graph (this file), and Kernel.Compose extends it from a
// spec in the graph.comp-like grammar (compose.go) — the only place a
// composable protocol is instantiated. The facade's Kernel is this
// package's, and internal/bench's measured stacks are a table of specs
// composed here.
package stacks

import (
	"fmt"

	"xkernel/internal/event"
	"xkernel/internal/proto/arp"
	"xkernel/internal/proto/eth"
	"xkernel/internal/proto/icmp"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/udp"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// HostConfig describes one host's attachment to a simulated network.
type HostConfig struct {
	// Name tags the host's protocol objects for tracing.
	Name string
	// Eth and IP are the host's addresses. Mask defaults to /24.
	Eth  xk.EthAddr
	IP   xk.IPAddr
	Mask xk.IPAddr
	// Network is the simulated segment the host attaches to. Wire,
	// when set, wins: the host attaches to any transport-seam backend
	// (a Network is just the seam's first implementation).
	Network *sim.Network
	// Wire is the transport-seam segment the host attaches to.
	Wire wire.Wire
	// Clock drives all the host's timers; nil means the real clock.
	Clock event.Clock
	// Forward enables IP forwarding (router hosts).
	Forward bool
	// ARP tunes resolution patience; zero values take defaults.
	ARP arp.Config
	// IPConfig tunes the IP layer; Forward and Clock above override
	// the corresponding fields.
	IPConfig ip.Config
}

// Host is a configured kernel instance: the standard protocol graph of
// Figure 1 (drivers at the bottom, ARP beside IP, UDP and ICMP above),
// onto which RPC stacks are composed per experiment.
type Host struct {
	Name  string
	Clock event.Clock

	// Link is the host's attachment to its wire, whatever the backend.
	Link    wire.Link
	wire    wire.Wire
	network *sim.Network
	Eth     *eth.Protocol
	ARP     *arp.Protocol
	IP      *ip.Protocol
	UDP     *udp.Protocol
	ICMP    *icmp.Protocol

	cfg HostConfig
}

// NewHost attaches a host to its network and builds the base graph.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("stacks: host needs a name")
	}
	if cfg.Wire == nil && cfg.Network == nil {
		return nil, fmt.Errorf("stacks: host %s needs a network or wire", cfg.Name)
	}
	if cfg.Mask == (xk.IPAddr{}) {
		cfg.Mask = xk.IPAddr{255, 255, 255, 0}
	}
	if cfg.Clock == nil {
		cfg.Clock = event.Real()
	}
	w := cfg.Wire
	if w == nil {
		w = cfg.Network.AsWire()
	}
	h := &Host{Name: cfg.Name, Clock: cfg.Clock, cfg: cfg}

	link, err := w.Attach(cfg.Eth)
	if err != nil {
		return nil, err
	}
	h.Link = link
	h.wire = w
	h.network = sim.Unwrap(w)
	h.Eth = eth.New(cfg.Name+"/eth", link)

	acfg := cfg.ARP
	if acfg.Clock == nil {
		acfg.Clock = cfg.Clock
	}
	h.ARP, err = arp.New(cfg.Name+"/arp", h.Eth, cfg.IP, acfg)
	if err != nil {
		return nil, err
	}

	icfg := cfg.IPConfig
	icfg.Forward = icfg.Forward || cfg.Forward
	if icfg.Clock == nil {
		icfg.Clock = cfg.Clock
	}
	h.IP, err = ip.New(cfg.Name+"/ip", icfg, ip.Interface{
		Link: h.Eth,
		ARP:  h.ARP,
		Addr: cfg.IP,
		Mask: cfg.Mask,
	})
	if err != nil {
		return nil, err
	}

	h.UDP, err = udp.New(cfg.Name+"/udp", h.IP)
	if err != nil {
		return nil, err
	}
	h.ICMP, err = icmp.New(cfg.Name+"/icmp", h.IP, cfg.Clock)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Network returns the simulated segment the host's first interface
// attaches to, or nil when the host runs over a different backend.
func (h *Host) Network() *sim.Network { return h.network }

// Wire returns the transport-seam segment the host's first interface
// attaches to.
func (h *Host) Wire() wire.Wire { return h.wire }

// AddInterface attaches the host to an additional segment (router hosts),
// rebuilding the IP layer with both interfaces. It must be called before
// traffic flows.
func (h *Host) AddInterface(network *sim.Network, ethAddr xk.EthAddr, ipAddr, mask xk.IPAddr) error {
	return h.AddInterfaceOn(network.AsWire(), ethAddr, ipAddr, mask)
}

// AddInterfaceOn is AddInterface over any transport-seam backend.
func (h *Host) AddInterfaceOn(w wire.Wire, ethAddr xk.EthAddr, ipAddr, mask xk.IPAddr) error {
	if mask == (xk.IPAddr{}) {
		mask = xk.IPAddr{255, 255, 255, 0}
	}
	link, err := w.Attach(ethAddr)
	if err != nil {
		return err
	}
	eth2 := eth.New(h.Name+"/eth1", link)
	acfg := h.cfg.ARP
	if acfg.Clock == nil {
		acfg.Clock = h.Clock
	}
	arp2, err := arp.New(h.Name+"/arp1", eth2, ipAddr, acfg)
	if err != nil {
		return err
	}
	icfg := h.cfg.IPConfig
	icfg.Forward = icfg.Forward || h.cfg.Forward
	if icfg.Clock == nil {
		icfg.Clock = h.Clock
	}
	ip2, err := ip.New(h.Name+"/ip", icfg,
		ip.Interface{Link: h.Eth, ARP: h.ARP, Addr: h.cfg.IP, Mask: h.cfg.Mask},
		ip.Interface{Link: eth2, ARP: arp2, Addr: ipAddr, Mask: mask},
	)
	if err != nil {
		return err
	}
	h.IP = ip2
	h.UDP, err = udp.New(h.Name+"/udp", h.IP)
	if err != nil {
		return err
	}
	h.ICMP, err = icmp.New(h.Name+"/icmp", h.IP, h.Clock)
	return err
}

// TwoHosts is the paper's standard testbed: "a pair of Sun 3/75s
// connected by an isolated 10Mbps ethernet". It returns a fresh network
// with a client and a server attached.
func TwoHosts(netCfg sim.Config, clock event.Clock) (client, server *Host, network *sim.Network, err error) {
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	client, server, w, err := TwoHostsOn(sim.Factory(netCfg), clock)
	if err != nil {
		return nil, nil, nil, err
	}
	return client, server, sim.Unwrap(w), nil
}

// TwoHostsOn is TwoHosts over any transport-seam backend: the factory
// mints the segment, and the addressing is identical, so a stack built
// here is byte-for-byte the stack TwoHosts builds. The caller owns the
// returned Wire (Close it when done).
func TwoHostsOn(f wire.Factory, clock event.Clock) (client, server *Host, w wire.Wire, err error) {
	w, err = f()
	if err != nil {
		return nil, nil, nil, err
	}
	client, err = NewHost(HostConfig{
		Name:  "client",
		Eth:   xk.EthAddr{0x02, 0, 0, 0, 0, 1},
		IP:    xk.IP(10, 0, 0, 1),
		Wire:  w,
		Clock: clock,
	})
	if err != nil {
		w.Close()
		return nil, nil, nil, err
	}
	server, err = NewHost(HostConfig{
		Name:  "server",
		Eth:   xk.EthAddr{0x02, 0, 0, 0, 0, 2},
		IP:    xk.IP(10, 0, 0, 2),
		Wire:  w,
		Clock: clock,
	})
	if err != nil {
		w.Close()
		return nil, nil, nil, err
	}
	return client, server, w, nil
}

// Internet builds the multi-segment topology VIP distinguishes from the
// local case: client and router on segment A, server and router on
// segment B, with routes installed so client↔server traffic crosses the
// router. The client cannot ARP the server, so VIP must pick IP (§3.1).
func Internet(netCfg sim.Config, clock event.Clock) (client, server, router *Host, err error) {
	return InternetWithTTL(netCfg, clock, 0)
}

// InternetWithTTL is Internet with the client originating datagrams at
// the given TTL (0 means the IP default) — used by TTL-expiry tests.
func InternetWithTTL(netCfg sim.Config, clock event.Clock, ttl uint8) (client, server, router *Host, err error) {
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	return internetOn(sim.Factory(netCfg), clock, ttl)
}

// InternetOn is Internet over any transport-seam backend: the factory
// is called once per segment, so the two broadcast domains are as
// isolated as the simulator's.
func InternetOn(f wire.Factory, clock event.Clock) (client, server, router *Host, err error) {
	return internetOn(f, clock, 0)
}

func internetOn(f wire.Factory, clock event.Clock, ttl uint8) (client, server, router *Host, err error) {
	segA, err := f()
	if err != nil {
		return nil, nil, nil, err
	}
	segB, err := f()
	if err != nil {
		segA.Close()
		return nil, nil, nil, err
	}
	fail := func(err error) (*Host, *Host, *Host, error) {
		segA.Close()
		segB.Close()
		return nil, nil, nil, err
	}
	client, err = NewHost(HostConfig{
		Name:     "client",
		Eth:      xk.EthAddr{0x02, 0, 0, 0, 0, 1},
		IP:       xk.IP(10, 0, 1, 1),
		Wire:     segA,
		Clock:    clock,
		IPConfig: ip.Config{TTL: ttl},
	})
	if err != nil {
		return fail(err)
	}
	server, err = NewHost(HostConfig{
		Name:  "server",
		Eth:   xk.EthAddr{0x02, 0, 0, 0, 0, 2},
		IP:    xk.IP(10, 0, 2, 1),
		Wire:  segB,
		Clock: clock,
	})
	if err != nil {
		return fail(err)
	}
	router, err = NewHost(HostConfig{
		Name:    "router",
		Eth:     xk.EthAddr{0x02, 0, 0, 0, 0, 0xAA},
		IP:      xk.IP(10, 0, 1, 254),
		Wire:    segA,
		Clock:   clock,
		Forward: true,
	})
	if err != nil {
		return fail(err)
	}
	if err := router.AddInterfaceOn(segB, xk.EthAddr{0x02, 0, 0, 0, 0, 0xBB}, xk.IP(10, 0, 2, 254), xk.IPAddr{}); err != nil {
		return fail(err)
	}
	client.IP.AddRoute(ip.Route{
		Net: xk.IP(10, 0, 2, 0), Mask: xk.IPAddr{255, 255, 255, 0},
		Gateway: xk.IP(10, 0, 1, 254),
	})
	server.IP.AddRoute(ip.Route{
		Net: xk.IP(10, 0, 1, 0), Mask: xk.IPAddr{255, 255, 255, 0},
		Gateway: xk.IP(10, 0, 2, 254),
	})
	return client, server, router, nil
}
