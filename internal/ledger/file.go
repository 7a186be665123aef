package ledger

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xkernel/internal/event"
)

// On-disk format (DESIGN.md §10): a directory of numbered segment
// files, each a header followed by length-prefixed, checksummed
// records:
//
//	segment  := magic "XKLG" | version u8 | record*
//	record   := bodyLen u32 | crc32(body) u32 | body
//	body     := kind u8 | peer [4]u8 | proto u32 | channel u16
//	            | (kind=exec)      clientBoot u32 | seq u32 | reply...
//	            | (kind=tombstone) nothing more
//
// All integers are big-endian. Replay walks segments in numeric order
// applying exec records (last writer wins per Key) and tombstones; the
// first record that fails its length or checksum ends the scan — the
// longest valid prefix is recovered and the torn tail discarded.

const (
	segMagic   = "XKLG"
	segVersion = 1
	segHdrLen  = 5
	recHdrLen  = 8 // bodyLen u32 + crc u32
	kindExec   = 1
	kindTomb   = 2
	execFixed  = 19 // kind + peer + proto + channel + clientBoot + seq
	tombFixed  = 11 // kind + peer + proto + channel
	segSuffix  = ".xkl"
)

// FileOptions configures the write-ahead file ledger.
type FileOptions struct {
	// Fsync selects when appended records become durable; default
	// FsyncAlways.
	Fsync FsyncPolicy
	// SyncInterval batches syncs under FsyncInterval; default 10ms.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment past this size;
	// default 1 MiB.
	SegmentBytes int64
	// Clock drives interval syncs and recovery timing; default the
	// real clock. Chaos and conformance runs inject event.FakeClock.
	Clock event.Clock
}

func (o *FileOptions) fill() {
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 10 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Clock == nil {
		o.Clock = event.Real()
	}
}

// File is the durable execution ledger: a write-ahead log whose
// records are appended before the reply they cache is sent, so a
// crash/boot cycle (Reboot) replays the log and keeps suppressing
// duplicate execution across the crash.
type File struct {
	dir string
	opt FileOptions

	mu        sync.Mutex
	idx       map[Key]Entry
	liveBytes int64 // reply bytes across live entries

	active    *os.File
	activeSeq int
	written   int64         // bytes in the active segment
	durable   int64         // prefix of the active segment known synced
	sealed    map[int]int64 // sealed segment number -> size

	closed      bool
	syncPending bool
	syncEv      *event.Event

	ctr                                                         counters
	syncs, compactions, recoveries                              int64
	recoveredRecords, recoveredBytes, tornTails, lastRecoveryNs int64
}

// NewFile opens (creating if needed) a file ledger rooted at dir and
// replays any existing segments into the live index.
func NewFile(dir string, opt FileOptions) (*File, error) {
	opt.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &File{dir: dir, opt: opt, idx: make(map[Key]Entry), sealed: make(map[int]int64)}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.recoverLocked(); err != nil {
		return nil, err
	}
	if err := f.openActiveLocked(); err != nil {
		return nil, err
	}
	return f, nil
}

// Dir returns the ledger's root directory.
func (f *File) Dir() string { return f.dir }

// Lookup returns the recorded entry for k without allocating.
func (f *File) Lookup(k Key) (Entry, bool) {
	f.mu.Lock()
	f.ctr.lookups++
	e, ok := f.idx[k]
	if ok {
		f.ctr.hits++
	}
	f.mu.Unlock()
	return e, ok
}

// Record appends an exec record (write-ahead: before the caller sends
// the reply), applies the fsync policy, and rotates full segments. A
// reply recorded as frames is encoded first: the disk, and the live
// index compaction rewrites from, hold the blob.
func (f *File) Record(k Key, e Entry) error {
	if e.Frames != nil {
		e = Entry{ClientBoot: e.ClientBoot, Seq: e.Seq, Reply: EncodeMsgs(e.Frames...)}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("ledger: closed")
	}
	f.ctr.appends++
	if err := f.appendLocked(appendRecord(nil, kindExec, k, e)); err != nil {
		return err
	}
	if err := f.applyFsyncLocked(); err != nil {
		return err
	}
	if old, ok := f.idx[k]; ok {
		f.liveBytes -= int64(len(old.Reply))
	}
	f.idx[k] = e
	f.liveBytes += int64(len(e.Reply))
	if f.written >= f.opt.SegmentBytes {
		if err := f.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Retire appends a tombstone for k (so the retirement itself survives
// a crash), drops the live entry, and compacts if the log is mostly
// dead — the epoch-scoped truncation of the ExecLedger contract.
func (f *File) Retire(k Key) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("ledger: closed")
	}
	f.ctr.retires++
	if _, ok := f.idx[k]; !ok {
		return nil
	}
	if err := f.appendLocked(appendRecord(nil, kindTomb, k, Entry{})); err != nil {
		return err
	}
	if err := f.applyFsyncLocked(); err != nil {
		return err
	}
	f.liveBytes -= int64(len(f.idx[k].Reply))
	delete(f.idx, k)
	return f.maybeCompactLocked()
}

// Reboot simulates a crash/boot cycle: the unsynced tail of the
// active segment is lost (truncated to the durable watermark), every
// segment is rescanned tolerating a torn tail, and the live index is
// rebuilt from the longest valid prefix.
func (f *File) Reboot() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cancelSyncLocked()
	if f.active != nil {
		// Crash model: only the durable prefix survives.
		if err := f.active.Truncate(f.durable); err != nil {
			f.active.Close()
			return err
		}
		if err := f.active.Close(); err != nil {
			return err
		}
		f.sealed[f.activeSeq] = f.durable
		f.active = nil
	}
	if err := f.recoverLocked(); err != nil {
		return err
	}
	return f.openActiveLocked()
}

// Tear chops n bytes off the end of the active segment, durable or
// not — the torn-append fault: a record the kernel only partially
// persisted before the crash. The in-memory index is left alone; the
// loss surfaces at the next Reboot, exactly like a real torn write.
func (f *File) Tear(n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.active == nil {
		return errors.New("ledger: no active segment")
	}
	if n <= 0 {
		return nil
	}
	if n > f.written {
		n = f.written
	}
	f.written -= n
	if f.durable > f.written {
		f.durable = f.written
	}
	return f.active.Truncate(f.written)
}

// Sync forces the active segment durable regardless of policy.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.active == nil {
		return nil
	}
	f.cancelSyncLocked()
	return f.syncLocked()
}

// Stats snapshots the counters.
func (f *File) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		Records:          int64(len(f.idx)),
		Bytes:            f.liveBytes,
		Lookups:          f.ctr.lookups,
		Hits:             f.ctr.hits,
		Appends:          f.ctr.appends,
		Retires:          f.ctr.retires,
		Syncs:            f.syncs,
		Compactions:      f.compactions,
		Recoveries:       f.recoveries,
		RecoveredRecords: f.recoveredRecords,
		RecoveredBytes:   f.recoveredBytes,
		TornTails:        f.tornTails,
		LastRecoveryNs:   f.lastRecoveryNs,
	}
	s.Segments = int64(len(f.sealed))
	s.SegBytes = f.written
	for _, sz := range f.sealed {
		s.SegBytes += sz
	}
	if f.active != nil {
		s.Segments++
	}
	return s
}

// Dump lists live entries sorted by key for stable output.
func (f *File) Dump() []RecordInfo {
	f.mu.Lock()
	out := make([]RecordInfo, 0, len(f.idx))
	for k, e := range f.idx {
		out = append(out, RecordInfo{Key: k, ClientBoot: e.ClientBoot, Seq: e.Seq, ReplyBytes: len(e.Reply)})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Close syncs and closes the active segment.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.cancelSyncLocked()
	if f.active == nil {
		return nil
	}
	err := f.syncLocked()
	if cerr := f.active.Close(); err == nil {
		err = cerr
	}
	f.active = nil
	return err
}

// applyFsyncLocked makes the append just written durable per policy:
// sync now (always), arm a batched sync (interval), or leave it to
// rotation and close (never).
func (f *File) applyFsyncLocked() error {
	switch f.opt.Fsync {
	case FsyncAlways:
		return f.syncLocked()
	case FsyncInterval:
		if !f.syncPending {
			f.syncPending = true
			f.syncEv = f.opt.Clock.Schedule(f.opt.SyncInterval, f.intervalSync)
		}
	}
	return nil
}

func (f *File) intervalSync() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncPending = false
	f.syncEv = nil
	if f.closed || f.active == nil {
		return
	}
	f.syncLocked()
}

func (f *File) cancelSyncLocked() {
	if f.syncEv != nil {
		f.syncEv.Cancel()
		f.syncEv = nil
	}
	f.syncPending = false
}

func (f *File) syncLocked() error {
	if err := f.active.Sync(); err != nil {
		return err
	}
	f.durable = f.written
	f.syncs++
	return nil
}

func (f *File) appendLocked(rec []byte) error {
	n, err := f.active.Write(rec)
	f.written += int64(n)
	return err
}

func segName(seq int) string { return fmt.Sprintf("%06d%s", seq, segSuffix) }

// openActiveLocked starts a fresh segment after the highest existing
// one. The header is synced immediately so an empty segment is always
// a valid (empty) prefix.
func (f *File) openActiveLocked() error {
	seq := 0
	for s := range f.sealed {
		if s >= seq {
			seq = s + 1
		}
	}
	if f.activeSeq >= seq {
		seq = f.activeSeq + 1
	}
	fh, err := os.OpenFile(filepath.Join(f.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := append([]byte(segMagic), segVersion)
	if _, err := fh.Write(hdr); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return err
	}
	f.active = fh
	f.activeSeq = seq
	f.written = segHdrLen
	f.durable = segHdrLen
	return nil
}

// rotateLocked seals the active segment and starts the next one, then
// compacts if the log is mostly dead bytes.
func (f *File) rotateLocked() error {
	if err := f.syncLocked(); err != nil {
		return err
	}
	if err := f.active.Close(); err != nil {
		return err
	}
	f.sealed[f.activeSeq] = f.written
	f.active = nil
	if err := f.openActiveLocked(); err != nil {
		return err
	}
	return f.maybeCompactLocked()
}

// maybeCompactLocked rewrites the live set into a fresh segment when
// the on-disk log is more than half dead bytes (and big enough to be
// worth it), then deletes the superseded segments. The compacted
// segment is synced before anything is deleted, so a crash mid-compact
// replays to the same live set.
func (f *File) maybeCompactLocked() error {
	disk := f.written
	for _, sz := range f.sealed {
		disk += sz
	}
	live := int64(segHdrLen)
	for _, e := range f.idx {
		live += int64(recHdrLen + execFixed + len(e.Reply))
	}
	if len(f.sealed) == 0 || disk < 4096 || disk < 2*live {
		return nil
	}
	return f.compactLocked()
}

func (f *File) compactLocked() error {
	// Seal the current active segment so the compacted one sorts
	// after every record it supersedes.
	if f.active != nil {
		if err := f.syncLocked(); err != nil {
			return err
		}
		if err := f.active.Close(); err != nil {
			return err
		}
		f.sealed[f.activeSeq] = f.written
		f.active = nil
	}
	old := make([]int, 0, len(f.sealed))
	for s := range f.sealed {
		old = append(old, s)
	}
	sort.Ints(old)

	if err := f.openActiveLocked(); err != nil {
		return err
	}
	keys := make([]Key, 0, len(f.idx))
	for k := range f.idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		if err := f.appendLocked(appendRecord(nil, kindExec, k, f.idx[k])); err != nil {
			return err
		}
	}
	if err := f.syncLocked(); err != nil {
		return err
	}
	for _, s := range old {
		if err := os.Remove(filepath.Join(f.dir, segName(s))); err != nil {
			return err
		}
		delete(f.sealed, s)
	}
	f.compactions++
	return nil
}

// recoverLocked rebuilds the live index from the segment files,
// stopping at the first torn or corrupt record.
func (f *File) recoverLocked() error {
	t0 := f.opt.Clock.Now()
	idx, stats, err := ScanDir(f.dir)
	if err != nil {
		return err
	}
	f.idx = idx
	f.liveBytes = 0
	for _, e := range idx {
		f.liveBytes += int64(len(e.Reply))
	}
	f.sealed = make(map[int]int64)
	for seq, sz := range stats.SegmentSizes {
		f.sealed[seq] = sz
	}
	if stats.Segments > 0 {
		f.recoveries++
		f.recoveredRecords += stats.Records
		f.recoveredBytes += stats.Bytes
		if stats.Torn {
			f.tornTails++
		}
		f.lastRecoveryNs = f.opt.Clock.Now().Sub(t0).Nanoseconds()
	}
	return nil
}

// ScanStats describes one replay of a ledger directory.
type ScanStats struct {
	Segments     int64         `json:"segments"`
	Records      int64         `json:"records"`    // exec records applied
	Tombstones   int64         `json:"tombstones"` // tombstones applied
	Bytes        int64         `json:"bytes"`      // reply bytes across applied exec records
	Torn         bool          `json:"torn"`       // a segment ended mid-record
	TornSegment  string        `json:"torn_segment,omitempty"`
	ValidBytes   int64         `json:"valid_bytes"` // total bytes of the recovered prefix
	SegmentSizes map[int]int64 `json:"-"`           // valid size per segment number
}

// ScanDir replays every segment under dir in numeric order and
// returns the resulting live index. The scan never fails on corrupt
// data: the first record that fails its length or checksum ends the
// replay, recovering the longest valid prefix. Only I/O errors are
// returned.
func ScanDir(dir string) (map[Key]Entry, ScanStats, error) {
	idx := make(map[Key]Entry)
	st := ScanStats{SegmentSizes: make(map[int]int64)}
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		return idx, st, err
	}
	type seg struct {
		seq  int
		path string
	}
	segs := make([]seg, 0, len(names))
	for _, p := range names {
		base := strings.TrimSuffix(filepath.Base(p), segSuffix)
		seq, err := strconv.Atoi(base)
		if err != nil {
			continue // not a segment file
		}
		segs = append(segs, seg{seq, p})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return idx, st, err
		}
		st.Segments++
		recs, validLen, torn := ScanSegment(data)
		st.SegmentSizes[s.seq] = int64(validLen)
		st.ValidBytes += int64(validLen)
		for _, r := range recs {
			switch r.Kind {
			case kindExec:
				st.Records++
				st.Bytes += int64(len(r.Entry.Reply))
				idx[r.Key] = r.Entry
			case kindTomb:
				st.Tombstones++
				delete(idx, r.Key)
			}
		}
		if torn {
			st.Torn = true
			st.TornSegment = filepath.Base(s.path)
			break // everything after the tear is untrusted
		}
	}
	return idx, st, nil
}

// ScanRecord is one decoded record.
type ScanRecord struct {
	Kind  byte
	Key   Key
	Entry Entry
}

// ScanSegment decodes one segment image. It never panics on arbitrary
// input: decoding stops at the first invalid byte and returns the
// records of the longest valid prefix, its length, and whether a torn
// or corrupt tail was discarded. Returned replies alias data.
func ScanSegment(data []byte) (recs []ScanRecord, validLen int, torn bool) {
	if len(data) < segHdrLen || string(data[:4]) != segMagic || data[4] != segVersion {
		return nil, 0, len(data) > 0
	}
	off := segHdrLen
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, false
		}
		if len(rest) < recHdrLen {
			return recs, off, true
		}
		bodyLen := int(be32(rest))
		crc := be32(rest[4:])
		if bodyLen < tombFixed || bodyLen > len(rest)-recHdrLen {
			return recs, off, true
		}
		body := rest[recHdrLen : recHdrLen+bodyLen]
		if crc32.ChecksumIEEE(body) != crc {
			return recs, off, true
		}
		r, ok := decodeBody(body)
		if !ok {
			return recs, off, true
		}
		recs = append(recs, r)
		off += recHdrLen + bodyLen
	}
}

func appendRecord(buf []byte, kind byte, k Key, e Entry) []byte {
	bodyLen := tombFixed
	if kind == kindExec {
		bodyLen = execFixed + len(e.Reply)
	}
	buf = append(buf, byte(bodyLen>>24), byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen))
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	bodyAt := len(buf)
	buf = append(buf, kind, k.Peer[0], k.Peer[1], k.Peer[2], k.Peer[3])
	buf = append(buf, byte(k.Proto>>24), byte(k.Proto>>16), byte(k.Proto>>8), byte(k.Proto))
	buf = append(buf, byte(k.Channel>>8), byte(k.Channel))
	if kind == kindExec {
		buf = append(buf, byte(e.ClientBoot>>24), byte(e.ClientBoot>>16), byte(e.ClientBoot>>8), byte(e.ClientBoot))
		buf = append(buf, byte(e.Seq>>24), byte(e.Seq>>16), byte(e.Seq>>8), byte(e.Seq))
		buf = append(buf, e.Reply...)
	}
	crc := crc32.ChecksumIEEE(buf[bodyAt:])
	buf[crcAt] = byte(crc >> 24)
	buf[crcAt+1] = byte(crc >> 16)
	buf[crcAt+2] = byte(crc >> 8)
	buf[crcAt+3] = byte(crc)
	return buf
}

func decodeBody(body []byte) (ScanRecord, bool) {
	var r ScanRecord
	r.Kind = body[0]
	copy(r.Key.Peer[:], body[1:5])
	r.Key.Proto = be32(body[5:])
	r.Key.Channel = uint16(body[9])<<8 | uint16(body[10])
	switch r.Kind {
	case kindTomb:
		return r, len(body) == tombFixed
	case kindExec:
		if len(body) < execFixed {
			return r, false
		}
		r.Entry.ClientBoot = be32(body[11:])
		r.Entry.Seq = be32(body[15:])
		r.Entry.Reply = body[execFixed:]
		return r, true
	default:
		return r, false
	}
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
