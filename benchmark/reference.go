package main

import (
	"sync"
	"time"
)

// The reference load is the benchmark's gauge of how fast the machine
// is right now. On the shared two-CPU hosts this benchmark runs on,
// the same binary measures 20–25 % apart between one minute and the
// next — other tenants take 6–60 % of a CPU and slow the rest — which
// no amount of averaging inside a run removes, because the whole run
// is shifted. So every slice is followed by a slice of this load, and
// the slice's figures are reported relative to it: a time is divided, a
// rate multiplied, by how much slower than its nominal speed the
// reference ran right beside it. What is reported is the
// time the stack would take on a machine where the reference runs at
// exactly its nominal speed. That took the run-to-run spread of
// null_rpc's median from 22 % to 3 % (README.md has the table).
//
// The load does to memory what a protocol stack does — per packet it
// allocates a message with header room, pushes four headers, tags an
// attribute, looks a session up under a lock, flattens the frame and
// copies it out the far side, with a timer armed and cancelled per
// call — because a gauge must slow down under the same neighbours as
// what it gauges: it is allocation-bound and keeps the collector as
// busy as the stacks do. It uses no code of the repository, so no
// change to the repository changes it, and a change that claims a gain
// may not edit this directory.
type refEndpoint struct {
	mu       sync.Mutex
	sessions map[string]int
	keys     [][]byte
	calls    int
}

type refMsg struct {
	leader []byte
	head   int
	blocks [][]byte
	attrs  map[int]any
}

const (
	refLeader = 192  // header room per message
	refHeader = 32   // one layer's header
	refLayers = 4    // headers pushed per packet
	refPacket = 1400 // payload bytes per packet
)

var refHeaderBytes [refHeader]byte

func newRefEndpoint() *refEndpoint {
	e := &refEndpoint{sessions: make(map[string]int)}
	for i := 0; i < inputCount; i++ {
		key := []byte{byte(i), 10, 0, 0, 2, 0, 7, byte(3 * i)}
		e.keys = append(e.keys, key)
		e.sessions[string(key)] = i
	}
	return e
}

// carry moves p one way, a packet at a time, and returns what arrives.
func (e *refEndpoint) carry(p []byte) []byte {
	var arrived []byte
	for off := 0; ; off += refPacket {
		end := min(off+refPacket, len(p))
		m := &refMsg{leader: make([]byte, refLeader), head: refLeader}
		if end > off {
			m.blocks = append(m.blocks, p[off:end])
		}
		for l := 0; l < refLayers; l++ {
			m.head -= refHeader
			copy(m.leader[m.head:], refHeaderBytes[:])
		}
		m.attrs = map[int]any{1: uint32(off)}

		e.mu.Lock()
		e.calls++
		_ = e.sessions[string(e.keys[e.calls&(inputCount-1)])]
		e.mu.Unlock()

		frame := make([]byte, 0, refLeader-m.head+end-off)
		frame = append(frame, m.leader[m.head:]...)
		for _, b := range m.blocks {
			frame = append(frame, b...)
		}
		up := &refMsg{leader: make([]byte, refLeader), head: refLeader, blocks: [][]byte{frame}}
		arrived = append(arrived, up.blocks[0][refLayers*refHeader:]...)
		if end >= len(p) {
			return arrived
		}
	}
}

func refTimeout() {}

func (e *refEndpoint) RoundTrip(p []byte) error {
	t := time.AfterFunc(time.Second, refTimeout)
	e.carry(p)
	e.carry(nil)
	t.Stop()
	return nil
}

func (e *refEndpoint) Echo(p []byte) ([]byte, error) {
	t := time.AfterFunc(time.Second, refTimeout)
	back := e.carry(e.carry(p))
	t.Stop()
	return back, nil
}
