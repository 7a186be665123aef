// Package udp implements the transport seam over real UDP sockets: the
// operating system's network path standing in for the paper's ethernet.
//
// One socket per NIC. Each attached link binds its own UDP socket on
// the configured interface; the complete ethernet frame — header built
// by the ETH protocol, 14 bytes of dst/src/type — travels as the
// datagram payload, so the protocol graph's framing is byte-identical
// to the simulator's. A peer table maps hardware addresses to socket
// addresses; broadcast is fan-out over the table, the way a switch
// floods a frame.
//
// Receive is a listener goroutine per NIC draining the socket in
// batches (recvmmsg where the platform has it) and feeding each
// validated frame to the driver's receive handler — the same shepherd
// path upward the simulator uses, except the shepherd is woken by the
// kernel instead of running on the sender's goroutine.
//
// What this backend cannot promise, by design: no virtual clock (time
// is the kernel's), no bit-reproducible frame logs (arrival order is
// real concurrency), no fault injection of its own (wrap the Wire in a
// wire.Injector for scripted adversity). What it does promise is the
// seam contract: address attach/detach, MTU policing, silent no-dest
// unicast, broadcast fan-out that skips the sender, and hostile
// datagrams rejected — never panicking, never mis-delivered.
package udp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"xkernel/internal/msg"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// Config parameterizes a Wire.
type Config struct {
	// ListenIP is the local IP the per-NIC sockets bind to. Empty
	// means loopback ("127.0.0.1"), the cross-process single-machine
	// case.
	ListenIP string
	// MTU is the largest frame payload accepted (header not counted).
	// Zero means wire.DefaultMTU, so frames sized for the simulator
	// are legal here too.
	MTU int
}

// Wire is one broadcast domain over UDP sockets.
type Wire struct {
	cfg      Config
	ip       net.IP
	maxFrame int

	// peers maps hardware addresses to socket addresses: the local
	// links' bound sockets plus any AddPeer entries. Republished
	// copy-on-write so the send path never takes mu.
	peers atomic.Pointer[map[xk.EthAddr]*net.UDPAddr]

	mu     sync.Mutex
	closed bool
	links  map[xk.EthAddr]*Link
	static map[xk.EthAddr]*net.UDPAddr

	ctr struct {
		sent      atomic.Int64
		delivered atomic.Int64
		dropped   atomic.Int64
		noDest    atomic.Int64
		bytes     atomic.Int64
	}
}

// New creates a Wire. The returned Wire owns no sockets until the
// first Attach.
func New(cfg Config) (*Wire, error) {
	if cfg.ListenIP == "" {
		cfg.ListenIP = "127.0.0.1"
	}
	if cfg.MTU == 0 {
		cfg.MTU = wire.DefaultMTU
	}
	ip := net.ParseIP(cfg.ListenIP)
	if ip == nil {
		return nil, fmt.Errorf("udp: bad listen IP %q", cfg.ListenIP)
	}
	w := &Wire{
		cfg:      cfg,
		ip:       ip,
		maxFrame: wire.MaxFrame(cfg.MTU),
		links:    make(map[xk.EthAddr]*Link),
	}
	w.publishPeersLocked()
	return w, nil
}

// Factory returns a wire.Factory minting one fresh broadcast domain
// per call with this configuration.
func Factory(cfg Config) wire.Factory {
	return func() (wire.Wire, error) {
		return New(cfg)
	}
}

// publishPeersLocked rebuilds the read-only peer table. Called with
// w.mu held by every mutator of links or static.
func (w *Wire) publishPeersLocked() {
	m := make(map[xk.EthAddr]*net.UDPAddr, len(w.links)+len(w.static))
	for a, l := range w.links {
		if conn := l.conn.Load(); conn != nil {
			m[a] = conn.LocalAddr().(*net.UDPAddr)
		}
	}
	for a, ua := range w.static {
		if _, local := m[a]; !local {
			m[a] = ua
		}
	}
	w.peers.Store(&m)
}

// Attach binds a new socket for addr and starts its listener.
func (w *Wire) Attach(addr xk.EthAddr) (wire.Link, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("udp: attach %s: %w", addr, wire.ErrClosed)
	}
	if _, dup := w.links[addr]; dup {
		return nil, fmt.Errorf("udp: address %s: %w", addr, wire.ErrDuplicateAddr)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: w.ip})
	if err != nil {
		return nil, fmt.Errorf("udp: attach %s: %w", addr, err)
	}
	l := &Link{w: w, addr: addr}
	l.conn.Store(conn)
	w.links[addr] = l
	w.publishPeersLocked()
	l.wg.Add(1)
	go l.listen(conn)
	return l, nil
}

// Detach closes the link's socket and waits for its listener to exit.
// Detaching an already detached (or foreign) link is a no-op.
func (w *Wire) Detach(l wire.Link) {
	ul, ok := l.(*Link)
	if !ok {
		return
	}
	w.mu.Lock()
	if cur, attached := w.links[ul.addr]; attached && cur == ul {
		delete(w.links, ul.addr)
		w.publishPeersLocked()
	}
	w.mu.Unlock()
	ul.shutdown()
}

// Reattach restores a previously detached link at its old address with
// a fresh socket — the crash model's reboot half. The receiver handler
// survives, so the host's stack resumes hearing frames.
func (w *Wire) Reattach(l wire.Link) error {
	ul, ok := l.(*Link)
	if !ok {
		return wire.ErrDetached
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("udp: reattach %s: %w", ul.addr, wire.ErrClosed)
	}
	if cur, dup := w.links[ul.addr]; dup {
		if cur == ul {
			return nil
		}
		return fmt.Errorf("udp: address %s: %w", ul.addr, wire.ErrDuplicateAddr)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: w.ip})
	if err != nil {
		return fmt.Errorf("udp: reattach %s: %w", ul.addr, err)
	}
	ul.detached.Store(false)
	ul.conn.Store(conn)
	w.links[ul.addr] = ul
	w.publishPeersLocked()
	ul.wg.Add(1)
	go ul.listen(conn)
	return nil
}

// AddPeer maps a hardware address to a remote socket address
// ("host:port") so two Wires in different processes can form one
// broadcast domain: each side attaches its own links and AddPeers the
// other side's.
func (w *Wire) AddPeer(addr xk.EthAddr, hostport string) error {
	ua, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return fmt.Errorf("udp: peer %s: %w", addr, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.static == nil {
		w.static = make(map[xk.EthAddr]*net.UDPAddr)
	}
	w.static[addr] = ua
	w.publishPeersLocked()
	return nil
}

// MTU reports the wire MTU.
func (w *Wire) MTU() int { return w.cfg.MTU }

// Stats returns a snapshot of the wire counters. FramesDropped counts
// hostile or damaged datagrams the frame validator refused.
func (w *Wire) Stats() wire.Stats {
	return wire.Stats{
		FramesSent:      w.ctr.sent.Load(),
		FramesDelivered: w.ctr.delivered.Load(),
		FramesDropped:   w.ctr.dropped.Load(),
		FramesNoDest:    w.ctr.noDest.Load(),
		BytesSent:       w.ctr.bytes.Load(),
	}
}

// Close detaches every link, closing sockets and joining listeners.
func (w *Wire) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	links := make([]*Link, 0, len(w.links))
	for _, l := range w.links {
		links = append(links, l)
	}
	w.links = make(map[xk.EthAddr]*Link)
	w.publishPeersLocked()
	w.mu.Unlock()
	for _, l := range links {
		l.shutdown()
	}
	return nil
}

// Link is one host's socket on the wire.
type Link struct {
	w    *Wire
	addr xk.EthAddr

	// conn is swapped atomically on detach/reattach so Send never
	// takes a lock; nil while detached.
	conn     atomic.Pointer[net.UDPConn]
	detached atomic.Bool
	wg       sync.WaitGroup

	// recv is the one receive slot, read on every delivery; an atomic
	// pointer keeps the receive path off any lock, exactly as in the
	// simulator.
	recv atomic.Pointer[wire.Receiver]
}

// Addr returns the link's hardware address.
func (l *Link) Addr() xk.EthAddr { return l.addr }

// MTU reports the wire MTU.
func (l *Link) MTU() int { return l.w.cfg.MTU }

// LocalAddr reports the link's bound socket address (for AddPeer on a
// Wire in another process), or nil while detached.
func (l *Link) LocalAddr() *net.UDPAddr {
	conn := l.conn.Load()
	if conn == nil {
		return nil
	}
	return conn.LocalAddr().(*net.UDPAddr)
}

// SetMsgReceiver installs the driver's frame handler; the handler owns
// the message it is handed. Nil uninstalls.
func (l *Link) SetMsgReceiver(f func(m *msg.Msg)) {
	l.recv.Store(wire.MsgReceiver(f))
}

// SetReceiver installs a raw-frame handler in the same slot; the
// handler owns the slice it is handed. Nil uninstalls.
func (l *Link) SetReceiver(f func(frame []byte)) {
	l.recv.Store(wire.FrameReceiver(f))
}

// SendMsg transmits the frame m to dst and consumes m. A datagram
// leaves the process as bytes whatever it was here, and the kernel
// copies them out before the write returns, so a unicast frame is
// flattened into scratch on this goroutine's stack: the send allocates
// nothing. Broadcast (ARP, once per peer) flattens to the heap.
func (l *Link) SendMsg(dst xk.EthAddr, m *msg.Msg) error {
	if dst.IsBroadcast() {
		return l.Send(dst, m.Bytes())
	}
	// Sized for the default MTU; a frame for a larger configured MTU
	// outgrows it and AppendTo moves to the heap.
	var scratch [wire.DefaultMTU + wire.EthHeaderBytes]byte
	return l.sendUnicast(dst, m.AppendTo(scratch[:0]))
}

// Send transmits frame to dst: unicast through the peer table, or
// fan-out to every other peer for broadcast. Unicast to an unknown
// address is silent (FramesNoDest), matching the ethernet contract.
func (l *Link) Send(dst xk.EthAddr, frame []byte) error {
	if !dst.IsBroadcast() {
		return l.sendUnicast(dst, frame)
	}
	conn, err := l.account(len(frame))
	if err != nil {
		return err
	}
	peers := *l.w.peers.Load()
	targets := make([]*net.UDPAddr, 0, len(peers))
	for a, ua := range peers {
		if a != l.addr {
			targets = append(targets, ua)
		}
	}
	if err := sendBatch(conn, targets, frame); err != nil {
		return l.sendErr(err)
	}
	return nil
}

// sendUnicast is Send for one destination. It is its own function so
// that frame does not escape: SendMsg's stack scratch stays on the stack.
func (l *Link) sendUnicast(dst xk.EthAddr, frame []byte) error {
	conn, err := l.account(len(frame))
	if err != nil {
		return err
	}
	ua, known := (*l.w.peers.Load())[dst]
	if !known {
		l.w.ctr.noDest.Add(1)
		return nil
	}
	if _, err := conn.WriteToUDP(frame, ua); err != nil {
		return l.sendErr(err)
	}
	return nil
}

// account polices one outgoing frame of size bytes against the MTU and
// the link's attachment, counts it, and returns the socket to write to.
func (l *Link) account(size int) (*net.UDPConn, error) {
	w := l.w
	if size > w.maxFrame {
		return nil, wire.ErrFrameTooBig
	}
	conn := l.conn.Load()
	if conn == nil {
		return nil, wire.ErrDetached
	}
	w.ctr.sent.Add(1)
	w.ctr.bytes.Add(int64(size))
	return conn, nil
}

// sendErr maps socket errors on a racing detach to the seam's
// sentinel; anything else surfaces as-is.
func (l *Link) sendErr(err error) error {
	if l.detached.Load() {
		return wire.ErrDetached
	}
	return err
}

// shutdown closes the socket and joins the listener goroutine.
func (l *Link) shutdown() {
	l.detached.Store(true)
	if conn := l.conn.Swap(nil); conn != nil {
		conn.Close()
	}
	l.wg.Wait()
}

// listen drains the socket until it is closed, validating each
// datagram and shepherding accepted frames up the stack.
func (l *Link) listen(conn *net.UDPConn) {
	defer l.wg.Done()
	rc, err := conn.SyscallConn()
	if err != nil {
		return
	}
	bio := newBatchIO(l.w.maxFrame)
	for {
		if err := bio.recvBatch(conn, rc, l.accept); err != nil {
			return
		}
	}
}

// accept validates one received datagram (buf is the reusable batch
// buffer, dlen the datagram's true length — larger than len(buf) when
// the kernel truncated an oversized one) and delivers it. The frame
// handed upward is a fresh copy: the stack owns it.
func (l *Link) accept(buf []byte, dlen int) {
	w := l.w
	if err := checkFrame(buf, dlen, l.addr, w.maxFrame); err != nil {
		w.ctr.dropped.Add(1)
		return
	}
	r := l.recv.Load()
	if r == nil {
		return
	}
	frame := make([]byte, dlen)
	copy(frame, buf)
	w.ctr.delivered.Add(1)
	r.Frame(frame)
}
