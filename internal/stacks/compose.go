package stacks

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"xkernel/internal/ledger"
	"xkernel/internal/obs"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/tcp"
	"xkernel/internal/proto/vip"
	"xkernel/internal/psync"
	"xkernel/internal/rpc/auth"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/rpc/nrpc"
	"xkernel/internal/rpc/selectp"
	"xkernel/internal/rpc/sunrpc"
	"xkernel/internal/xk"
)

// Kernel is one configured host: the base protocol graph (drivers, ARP,
// IP, UDP, ICMP) plus whatever the composition spec adds on top. It is
// the unit the paper calls "a given instance of the x-kernel"
// (Figure 1), and Compose is the only place in the repository that
// instantiates a composable protocol: the facade, the commands and every
// measured stack in internal/bench build their graphs through it.
type Kernel struct {
	host  *Host
	protl map[string]xk.Protocol
	below map[string][]string // graph edges for printing
	order []string
	mechs map[string]auth.Mechanism
	meter *obs.Meter
	wraps map[string]*obs.W // interposed instrumentation, one per "@name"

	fragHold time.Duration     // FRAGMENT's send hold; zero is the protocol's default
	ledger   ledger.ExecLedger // at-most-once execution ledger; nil is the protocol's own
}

// NewKernel wraps a host's base graph as a kernel ready to Compose.
func NewKernel(h *Host) *Kernel {
	k := &Kernel{
		host:  h,
		protl: make(map[string]xk.Protocol),
		below: make(map[string][]string),
		mechs: map[string]auth.Mechanism{"auth": auth.None{}},
		wraps: make(map[string]*obs.W),
	}
	for name, p := range map[string]xk.Protocol{
		"eth":  h.Eth,
		"arp":  h.ARP,
		"ip":   h.IP,
		"udp":  h.UDP,
		"icmp": h.ICMP,
	} {
		k.protl[name] = p
		k.order = append(k.order, name)
	}
	sort.Strings(k.order) // deterministic builtin order
	k.below["arp"] = []string{"eth"}
	k.below["ip"] = []string{"eth"}
	k.below["udp"] = []string{"ip"}
	k.below["icmp"] = []string{"ip"}
	return k
}

// Name reports the host name.
func (k *Kernel) Name() string { return k.host.Name }

// Addr reports the host's internet address.
func (k *Kernel) Addr() xk.IPAddr {
	v, err := k.host.IP.Control(xk.CtlGetMyHost, nil)
	if err != nil {
		panic(err) // the base graph always answers this
	}
	return v.(xk.IPAddr)
}

// Host exposes the underlying wiring for advanced callers (the bench
// harness, tests).
func (k *Kernel) Host() *Host { return k.host }

// Get returns a configured protocol instance by name.
func (k *Kernel) Get(name string) (xk.Protocol, bool) {
	p, ok := k.protl[name]
	return p, ok
}

// MustGet is Get for instances the caller knows exist.
func (k *Kernel) MustGet(name string) xk.Protocol {
	p, ok := k.protl[name]
	if !ok {
		panic(fmt.Sprintf("xkernel: no protocol instance %q in kernel %s", name, k.Name()))
	}
	return p
}

// AddMechanism registers an authentication mechanism for use by
// "auth:<name>" lines in composition specs.
func (k *Kernel) AddMechanism(name string, mech auth.Mechanism) {
	k.mechs[name] = mech
}

// SetFragmentHold gives "fragment" lines composed after it the time a
// sender keeps a message for resend requests; a kernel that is never
// told takes FRAGMENT's own default. A timing run shortens it so held
// copies of swept 16 KB messages do not pile up as live heap.
func (k *Kernel) SetFragmentHold(d time.Duration) { k.fragHold = d }

// SetLedger gives "channel", "mrpc" and "nrpc" lines composed after it
// the execution ledger their at-most-once state is recorded in — a
// server's durable one, say. A kernel that is never told leaves each
// protocol its own bounded in-memory ledger.
func (k *Kernel) SetLedger(l ledger.ExecLedger) { k.ledger = l }

// Meter returns the kernel's observability meter, creating one on
// first use. Every "@name" boundary composed into this kernel counts
// into it under the layer name "<host>/<name>".
func (k *Kernel) Meter() *obs.Meter {
	if k.meter == nil {
		k.meter = obs.NewMeter()
	}
	return k.meter
}

// SetMeter shares a meter across kernels (layer names are
// host-prefixed, so one meter can hold both ends of a conversation).
// Call it before Compose; boundaries already composed keep the meter
// they were created with.
func (k *Kernel) SetMeter(m *obs.Meter) {
	k.meter = m
}

// Lower returns what a spec line naming ref as a lower protocol binds
// to: the instance, or for "@name" the instrumentation boundary above
// it. All references to "@name" share one boundary, created on first
// use, so its counters see every message entering the instance from any
// layer above. Callers that open sessions through the uniform interface
// use it to bind above a composed graph by the rule Compose follows.
func (k *Kernel) Lower(ref string) (xk.Protocol, error) {
	name := strings.TrimPrefix(ref, "@")
	p, ok := k.protl[name]
	if !ok {
		return nil, fmt.Errorf("unknown lower protocol %q", name)
	}
	if name == ref {
		return p, nil
	}
	w, ok := k.wraps[name]
	if !ok {
		w = obs.Wrap(k.host.Name+"/"+name, p, k.Meter())
		k.wraps[name] = w
	}
	return w, nil
}

// Compose extends the kernel's protocol graph from a spec: one line per
// instance, "name[:kind] lower...", where kind defaults to name and
// lower instances must already exist. Blank lines and #-comments are
// ignored.
//
// Kinds: vip, vipaddr, vipsize, ethmap, fragment, channel, select,
// mrpc, nrpc, reqrep, sunselect, auth, psync, tcp (plus the builtins
// eth, arp, ip, udp, icmp, which exist in every kernel).
//
// A lower protocol written "@name" interposes an obs.Wrap
// instrumentation boundary above instance name: the layer above binds
// to the wrap instead of the instance, and every push, pop, open and
// byte crossing that edge is counted into the kernel's Meter under the
// layer name "<host>/<name>". The wrap adds no header and changes no
// wire bytes; see Metered for instrumenting a whole spec.
func (k *Kernel) Compose(spec string) error {
	for lineno, raw := range strings.Split(spec, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		name, kind := fields[0], fields[0]
		if i := strings.IndexByte(fields[0], ':'); i >= 0 {
			name, kind = fields[0][:i], fields[0][i+1:]
		}
		if _, dup := k.protl[name]; dup {
			return fmt.Errorf("xkernel: line %d: instance %q already exists", lineno+1, name)
		}
		var lower []xk.Protocol
		for _, dep := range fields[1:] {
			p, err := k.Lower(dep)
			if err != nil {
				return fmt.Errorf("xkernel: line %d: %w", lineno+1, err)
			}
			lower = append(lower, p)
		}
		p, err := k.build(name, kind, lower)
		if err != nil {
			return fmt.Errorf("xkernel: line %d: %w", lineno+1, err)
		}
		k.protl[name] = p
		k.below[name] = fields[1:]
		k.order = append(k.order, name)
	}
	return nil
}

// arity is how many lower protocols each composable kind takes.
var arity = map[string]int{
	"vip": 2, "vipaddr": 2, "vipsize": 2, "ethmap": 1, "fragment": 1,
	"channel": 1, "select": 1, "mrpc": 1, "nrpc": 1, "reqrep": 1,
	"sunselect": 1, "auth": 1, "tcp": 1, "psync": 1,
}

// build instantiates one protocol of the given kind.
func (k *Kernel) build(name, kind string, lower []xk.Protocol) (xk.Protocol, error) {
	if n, ok := arity[kind]; ok && len(lower) != n {
		return nil, fmt.Errorf("%s needs %d lower protocol(s), got %d", kind, n, len(lower))
	}
	full, clock := k.host.Name+"/"+name, k.host.Clock
	switch kind {
	case "vip":
		return vip.New(full, lower[0], lower[1], k.host.ARP)
	case "vipaddr":
		return vip.NewAddr(full, lower[0], lower[1], k.host.ARP)
	case "vipsize":
		return vip.NewSize(full, lower[0], lower[1], k.host.ARP)
	case "ethmap":
		return vip.NewEthMap(full, lower[0], k.host.ARP), nil
	case "fragment":
		return fragment.New(full, lower[0], k.Addr(), fragment.Config{Clock: clock, SendHold: k.fragHold})
	case "channel":
		return channel.New(full, lower[0], channel.Config{Clock: clock, Ledger: k.ledger})
	case "select":
		return selectp.New(full, lower[0], selectp.Config{})
	case "mrpc":
		return mrpc.New(full, lower[0], k.Addr(), mrpc.Config{Clock: clock, Ledger: k.ledger})
	case "nrpc":
		return nrpc.New(full, lower[0], k.Addr(), nrpc.Config{Clock: clock, RPC: mrpc.Config{Ledger: k.ledger}})
	case "reqrep":
		return sunrpc.NewReqRep(full, lower[0], sunrpc.ReqRepConfig{Clock: clock})
	case "sunselect":
		return sunrpc.NewSelect(full, lower[0], sunrpc.SelectConfig{})
	case "auth":
		mech, ok := k.mechs[name]
		if !ok {
			return nil, fmt.Errorf("no mechanism registered under %q (use AddMechanism)", name)
		}
		return auth.NewLayer(full, lower[0], mech), nil
	case "tcp":
		return tcp.New(full, lower[0], tcp.Config{Clock: clock})
	case "psync":
		return psync.New(full, lower[0], k.Addr(), psync.Config{Clock: clock})
	default:
		return nil, fmt.Errorf("unknown protocol kind %q", kind)
	}
}

// Metered rewrites a composition spec so every boundary is
// instrumented: each lower-protocol reference gains an "@" prefix
// (idempotent; comments and instance names untouched). Composing the
// result measures the graph layer-by-layer into the kernel's Meter:
//
//	m := xkernel.NewMeter()
//	k.SetMeter(m)
//	err := k.Compose(xkernel.Metered(spec))
func Metered(spec string) string {
	lines := strings.Split(spec, "\n")
	for i, raw := range lines {
		line, comment := raw, ""
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line, comment = line[:j], line[j:]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		for j, dep := range fields[1:] {
			if !strings.HasPrefix(dep, "@") {
				fields[1+j] = "@" + dep
			}
		}
		rewritten := strings.Join(fields, " ")
		if comment != "" {
			rewritten += " " + comment
		}
		lines[i] = rewritten
	}
	return strings.Join(lines, "\n")
}

// Graph renders the kernel's protocol graph, one "name kind-below..."
// line per instance in configuration order — the printable counterpart
// of the spec, used by cmd/xkgraph.
func (k *Kernel) Graph() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s (%s)\n", k.Name(), k.Addr())
	for _, name := range k.order {
		deps := k.below[name]
		if len(deps) == 0 {
			fmt.Fprintf(&b, "  %-12s (driver)\n", name)
			continue
		}
		fmt.Fprintf(&b, "  %-12s -> %s\n", name, strings.Join(deps, ", "))
	}
	return b.String()
}

// Instances lists the configured protocol instance names in order.
func (k *Kernel) Instances() []string {
	return append([]string(nil), k.order...)
}

// EnableVIPDiscovery starts the §3.1 advertisement generalization on
// this kernel: broadcast that this host accepts the given protocol
// numbers over VIP (re-announcing every interval; zero means announce
// only when Announce is called on the returned Announcer), collect
// peers' announcements into a directory, and switch the named VIP
// instance's open-time locality test from ARP probing to the table.
func (k *Kernel) EnableVIPDiscovery(vipName string, protos []ip.ProtoNum, interval time.Duration) (*vip.Directory, *vip.Announcer, error) {
	v, err := Instance[*vip.Protocol](k, vipName)
	if err != nil {
		return nil, nil, err
	}
	dir := vip.NewDirectory(k.host.Clock, 0)
	ann, err := vip.NewAnnouncer(k.host.Name+"/vipd", k.host.Eth, k.Addr(), protos, dir, interval, k.host.Clock)
	if err != nil {
		return nil, nil, err
	}
	v.SetDirectory(dir)
	return dir, ann, nil
}

// Instance returns the named instance as the concrete protocol type T.
func Instance[T xk.Protocol](k *Kernel, name string) (T, error) {
	var zero T
	p, ok := k.protl[name]
	if !ok {
		return zero, fmt.Errorf("xkernel: no instance %q", name)
	}
	s, ok := p.(T)
	if !ok {
		return zero, fmt.Errorf("xkernel: %q is %T, not %T", name, p, zero)
	}
	return s, nil
}

// Typed accessors for the protocol kinds callers drive directly.

// Select returns a SELECT instance by name.
func (k *Kernel) Select(name string) (*selectp.Protocol, error) {
	return Instance[*selectp.Protocol](k, name)
}

// MRPC returns a monolithic Sprite RPC instance by name.
func (k *Kernel) MRPC(name string) (*mrpc.Protocol, error) {
	return Instance[*mrpc.Protocol](k, name)
}

// TCP returns a TCP instance by name.
func (k *Kernel) TCP(name string) (*tcp.Protocol, error) {
	return Instance[*tcp.Protocol](k, name)
}

// NRPC returns a native-style RPC analogue instance by name.
func (k *Kernel) NRPC(name string) (*nrpc.Protocol, error) {
	return Instance[*nrpc.Protocol](k, name)
}

// SunSelect returns a SUN_SELECT instance by name.
func (k *Kernel) SunSelect(name string) (*sunrpc.Select, error) {
	return Instance[*sunrpc.Select](k, name)
}

// Psync returns a Psync instance by name.
func (k *Kernel) Psync(name string) (*psync.Protocol, error) {
	return Instance[*psync.Protocol](k, name)
}
