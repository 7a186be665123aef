// Package ledger is the execution ledger behind the x-kernel's
// at-most-once machinery (paper §3.2). CHANNEL and M.RPC both keep,
// per server channel, the id of the last executed request and its
// framed reply so a retransmitted request is answered from the cache
// instead of re-running the handler. The paper's protocols keep that
// state in process memory, which silently narrows the guarantee to
// "at-most-once since last boot": a crashed server forgets every
// executed id and must widen retransmissions into errRebooted.
//
// ExecLedger factors that state behind an interface with two
// implementations. Mem is the paper-faithful volatile store — the old
// in-memory maps, now bounded by an LRU byte cap — and holds each reply's
// frames by value, as the paper's server keeps its last reply. File is a
// write-ahead log of checksummed records: a server that records the
// reply before sending it can crash, replay the log on boot, and keep
// suppressing duplicates across the crash, returning the cached reply
// byte-for-byte.
//
// The package is wall-clock-free: durations (interval fsync, recovery
// timing) come from an injected event.Clock so chaos and conformance
// runs stay deterministic under event.FakeClock.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xkernel/internal/msg"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/xk"
)

// Key names one server-side channel: the peer host that owns it, the
// demux key the request arrived under (the client's protocol number
// for CHANNEL, 0 for M.RPC whose header carries no protocol field),
// and the channel id. One Key holds at most one Entry — recording a
// new request on a channel implicitly acknowledges and replaces the
// previous one, mirroring the implicit-ack discipline on the wire.
type Key struct {
	Peer    xk.IPAddr
	Proto   uint32
	Channel uint16
}

func (k Key) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/p%d/c%d", k.Peer[0], k.Peer[1], k.Peer[2], k.Peer[3], k.Proto, k.Channel)
}

// Entry is one executed request: the client boot epoch and sequence
// number that identify it, and its reply as framed for the wire, headers
// included, so that a replay is byte-identical to the original send.
//
// The reply comes in one of two forms. Frames are the ready-to-push
// messages themselves: the engines record these, Mem holds them by value
// in storage of its own and File encodes them (EncodeMsgs) for its disk.
// Neither keeps the slice or the messages it is handed, which the caller
// goes on to push. Reply is the same frames encoded as one blob
// (EncodeFrames): File's Lookup returns it, and a caller may record bytes.
// An Entry sets one form, and a Lookup returns the form it holds.
type Entry struct {
	ClientBoot uint32
	Seq        uint32
	Reply      []byte
	Frames     []*msg.Msg
}

// size is the reply bytes e holds: the blob's length, or the frames'.
func (e Entry) size() int64 {
	n := int64(len(e.Reply))
	for _, f := range e.Frames {
		n += int64(f.Len())
	}
	return n
}

// RecordInfo is one live entry as reported by Dump — the identity
// without the reply payload, plus its size.
type RecordInfo struct {
	Key        Key    `json:"key"`
	ClientBoot uint32 `json:"client_boot"`
	Seq        uint32 `json:"seq"`
	ReplyBytes int    `json:"reply_bytes"`
}

// FsyncPolicy selects when the file ledger makes appended records
// durable. The policy is the knob behind the durability tax measured
// in EXPERIMENTS.md: Always pays a sync per executed request, Interval
// batches syncs on a timer, Never relies on rotation/close syncs only
// (crash loses the unsynced tail; at-most-once degrades to a
// conservative reject for those requests, never to re-execution).
type FsyncPolicy string

const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// Stats is a point-in-time snapshot of a ledger's counters.
type Stats struct {
	Records     int64 `json:"records"`   // live entries
	Bytes       int64 `json:"bytes"`     // reply bytes held by live entries: frames' bytes, or File's blobs
	Lookups     int64 `json:"lookups"`   // Lookup calls
	Hits        int64 `json:"hits"`      // Lookup calls that found an entry
	Appends     int64 `json:"appends"`   // Record calls
	Evictions   int64 `json:"evictions"` // entries dropped by the Mem byte cap
	Retires     int64 `json:"retires"`   // epoch-scoped truncations (Retire calls)
	Syncs       int64 `json:"syncs"`     // fsyncs issued (file ledger)
	Segments    int64 `json:"segments"`  // on-disk segment files (file ledger)
	SegBytes    int64 `json:"seg_bytes"` // bytes across all segments (file ledger)
	Compactions int64 `json:"compactions"`

	// Recovery telemetry, cumulative across Reboot calls.
	Recoveries       int64 `json:"recoveries"`
	RecoveredRecords int64 `json:"recovered_records"`
	RecoveredBytes   int64 `json:"recovered_bytes"`
	TornTails        int64 `json:"torn_tails"`
	LastRecoveryNs   int64 `json:"last_recovery_ns"`
}

// ExecLedger records executed requests and answers
// lookup-before-execute queries from the server request path.
// Implementations are safe for concurrent use; Lookup sits on the
// request hot path and must not allocate.
type ExecLedger interface {
	// Lookup returns the recorded entry for the channel, if any. Frames
	// it returns are the ledger's, and stay as they are for as long as
	// the caller holds them: a replay clones them and pushes the clones.
	Lookup(k Key) (Entry, bool)
	// Record stores the entry for the channel, replacing any previous
	// one (implicit acknowledgement). It keeps a copy of e's reply, held
	// messages or encoded bytes, never e.Frames itself. A durable ledger
	// persists the record before returning according to its fsync
	// policy; an error means the caller must not send the reply
	// (write-ahead).
	Record(k Key, e Entry) error
	// Retire drops the entry for a channel whose client epoch ended
	// (the client rebooted, or the channel is being torn down).
	Retire(k Key) error
	// Reboot simulates or performs a crash/boot cycle: volatile state
	// is lost, durable state is replayed. Mem forgets everything; File
	// drops its unsynced tail, rescans its segments tolerating a torn
	// tail, and rebuilds the live index.
	Reboot() error
	// Stats snapshots the counters.
	Stats() Stats
	// Dump lists the live entries (identity and size, not payloads).
	Dump() []RecordInfo
	// Close releases resources; a file ledger syncs first.
	Close() error
}

// RegisterGauges registers the always-on ledger gauges under
// prefix+".ledger" on the set: live records and bytes, evictions, and
// recovery telemetry.
func RegisterGauges(set *gauge.Set, prefix string, l ExecLedger) {
	set.Register(prefix+".ledger.records", func() int64 { return l.Stats().Records })
	set.Register(prefix+".ledger.bytes", func() int64 { return l.Stats().Bytes })
	set.Register(prefix+".ledger.evictions", func() int64 { return l.Stats().Evictions })
	set.Register(prefix+".ledger.recovered", func() int64 { return l.Stats().RecoveredRecords })
	set.Register(prefix+".ledger.recovery_ns", func() int64 { return l.Stats().LastRecoveryNs })
}

// errFrames guards DecodeFrames against corrupt blobs.
var errFrames = errors.New("ledger: malformed reply blob")

// EncodeFrames packs ready-to-send reply frames into one blob:
// a u8 frame count, then per frame a u32 length and the bytes.
// CHANNEL replies are one frame; M.RPC replies are up to 16 fragments.
func EncodeFrames(frames ...[]byte) []byte {
	return encodeBlob(len(frames),
		func(i int) int { return len(frames[i]) },
		func(blob []byte, i int) []byte { return append(blob, frames[i]...) })
}

// EncodeMsgs is EncodeFrames for frames still held as messages: each is
// flattened straight into the blob, with no intermediate copy per frame.
// File records a reply's frames this way.
func EncodeMsgs(frames ...*msg.Msg) []byte {
	return encodeBlob(len(frames),
		func(i int) int { return frames[i].Len() },
		func(blob []byte, i int) []byte { return frames[i].AppendTo(blob) })
}

// encodeBlob is the reply blob's layout, written once for both encoders:
// frame i is length(i) bytes long and appendFrame appends exactly those.
func encodeBlob(count int, length func(i int) int, appendFrame func(blob []byte, i int) []byte) []byte {
	n := 1
	for i := 0; i < count; i++ {
		n += 4 + length(i)
	}
	blob := make([]byte, 0, n)
	blob = append(blob, byte(count))
	for i := 0; i < count; i++ {
		blob = binary.BigEndian.AppendUint32(blob, uint32(length(i)))
		blob = appendFrame(blob, i)
	}
	return blob
}

// DecodeFrames unpacks an EncodeFrames blob. The returned slices
// alias the blob.
func DecodeFrames(blob []byte) ([][]byte, error) {
	if len(blob) < 1 {
		return nil, errFrames
	}
	count := int(blob[0])
	blob = blob[1:]
	frames := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(blob) < 4 {
			return nil, errFrames
		}
		n := int(binary.BigEndian.Uint32(blob))
		blob = blob[4:]
		if n < 0 || n > len(blob) {
			return nil, errFrames
		}
		frames = append(frames, blob[:n])
		blob = blob[n:]
	}
	if len(blob) != 0 {
		return nil, errFrames
	}
	return frames, nil
}
