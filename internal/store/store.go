// Package store implements a small embedded key-value store with a
// write-ahead log and snapshot compaction. It substitutes the MariaDB
// persistence layer of the IMCF prototype: meta-rule tables, energy
// profiles and controller configuration are durably stored and survive
// controller restarts, including crashes that tear the log's tail.
//
// On disk a store is a directory with two files:
//
//	store.snap — a point-in-time snapshot of all live keys
//	store.wal  — the write-ahead log of operations since that snapshot
//
// Open loads the snapshot, replays the WAL (stopping at the first torn
// or corrupt record, which is truncated away), and serves reads from an
// in-memory map. Every Put is appended to the WAL and fsynced before it
// is applied and acknowledged. Compaction (on Close, or every
// CompactEvery records) rewrites the snapshot and resets the WAL.
package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/obs"
)

const (
	snapName = "store.snap"
	walName  = "store.wal"

	opPut = 1
	// opProbe is a no-op record appended by Probe to verify the write
	// path; replay ignores it. Codes 2 and 3 (delete and batch records)
	// are retired: replay stops at one as at any unknown op.
	opProbe = 4
)

var (
	snapMagic = [4]byte{'I', 'M', 'S', 'S'}
	walMagic  = [4]byte{'I', 'M', 'W', 'L'}
)

const (
	// snapVersionLegacy is the pre-generation snapshot format: a
	// 16-byte header (magic, version, pad, key count) and no WAL
	// header. Still accepted by Open; the next compaction rewrites
	// both files in the current format.
	snapVersionLegacy = 1
	snapVersion       = 2
	walVersion        = 1
	// walHeaderLen is magic(4) + version(1) + pad(3) + generation(8).
	walHeaderLen = 16
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("store: database is closed")

// Options configures Open. Every write is fsynced before it is
// acknowledged.
type Options struct {
	// Dir is the directory holding the store files; it is created if
	// missing.
	Dir string
	// CompactEvery triggers automatic compaction after this many WAL
	// records (0 disables automatic compaction).
	CompactEvery int
	// FS overrides the file layer (tests inject faultfs fakes to
	// exercise crash recovery); nil uses the real filesystem.
	FS faultfs.FS
}

// DB is an open store. It is safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	opts    Options
	fs      faultfs.FS
	data    map[string][]byte
	wal     faultfs.File
	walErr  error // why wal is nil (failed compaction reset or tail rollback)
	walRecs int
	// walSize is the log length up to the last acknowledged record —
	// the rollback point after a failed append. Truncating back to it
	// keeps torn bytes (a short write under ENOSPC) from sitting in
	// front of later acknowledged records, which replay — stopping at
	// the first bad record — would otherwise silently discard.
	walSize int64
	// gen is the compaction generation. The snapshot and the WAL header
	// both carry it; replay discards a WAL whose generation differs from
	// the snapshot's. This closes the stale-log window: a crash after
	// the new snapshot's rename is durable but before the WAL reset can
	// resurrect pre-compaction records (tearing keeps an arbitrary
	// prefix), and replaying that prefix — e.g. a stale delete of a key
	// the folded-in history later re-created — onto the newer snapshot
	// would fabricate a state that never existed.
	gen    uint64
	closed bool

	// Group-commit pipeline state. Writers encode their record off the
	// store lock, enqueue it under qmu, and the first writer to find no
	// flush in progress becomes the leader: it drains the queue, frames
	// the whole batch into groupBuf, appends and fsyncs it with a
	// single Write+Sync under db.mu, applies the map mutations, and
	// acks every waiter — O(1) fsyncs per batch instead of O(writers).
	qmu      sync.Mutex
	pending  []*commitReq
	spare    []*commitReq // recycled backing array for pending
	flushing bool
	groupBuf []byte // batch framing scratch, reused across flushes
}

// Open opens (or creates) the store in opts.Dir.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Dir must be set")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	db := &DB{opts: opts, fs: fsys, data: make(map[string][]byte)}
	// A temp snapshot left behind by a crash mid-compaction is garbage:
	// the real snapshot is only ever replaced by a completed rename.
	if err := fsys.Remove(db.snapPath() + ".tmp"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: remove stale temp snapshot: %w", err)
	}
	if err := db.loadSnapshot(); err != nil {
		return nil, err
	}
	replayed, err := db.replayWAL()
	if err != nil {
		return nil, err
	}
	wal, err := fsys.OpenFile(db.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	db.wal = wal
	if size, err := fsys.Size(db.walPath()); err != nil {
		return nil, fmt.Errorf("store: stat wal: %w", err)
	} else if size == 0 {
		// Fresh (or reset-after-staleness) log: stamp it with the
		// snapshot's generation before any record lands.
		if err := db.writeWALHeader(); err != nil {
			return nil, err
		}
	} else {
		// Replay already truncated any torn tail, so the current
		// length is the last-good offset.
		db.walSize = size
	}
	// The directory entries (a freshly created WAL, the removed temp
	// snapshot) must be durable before the first append is
	// acknowledged, or a power cut could take the whole log with it.
	if err := fsys.SyncDir(opts.Dir); err != nil {
		return nil, fmt.Errorf("store: sync dir: %w", err)
	}
	db.walRecs = replayed
	return db, nil
}

// writeWALHeader appends the 16-byte log header (magic, version, the
// current compaction generation) to an empty WAL. The caller holds
// db.mu or is still constructing the DB.
func (db *DB) writeWALHeader() error {
	hdr := make([]byte, 0, walHeaderLen)
	hdr = append(hdr, walMagic[:]...)
	hdr = append(hdr, walVersion, 0, 0, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, db.gen)
	if _, err := db.wal.Write(hdr); err != nil {
		return fmt.Errorf("store: write wal header: %w", err)
	}
	db.walSize = walHeaderLen
	return nil
}

func (db *DB) snapPath() string { return filepath.Join(db.opts.Dir, snapName) }
func (db *DB) walPath() string  { return filepath.Join(db.opts.Dir, walName) }

// Get returns the value stored at key. The returned slice is a copy the
// caller may retain.
func (db *DB) Get(key string) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.data[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Put durably stores value at key.
func (db *DB) Put(key string, value []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	req := newReq(opPut, key, cp)
	req.payload = encodeOp(req.payload[:0], opPut, key, value)
	return db.finish(req)
}

// Keys returns all keys with the given prefix, sorted.
func (db *DB) Keys(prefix string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for k := range db.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// PutJSON marshals v and stores it at key.
func (db *DB) PutJSON(key string, v any) error { return putJSON(db, key, v) }

// GetJSON unmarshals the value at key into v, reporting whether the key
// existed.
func (db *DB) GetJSON(key string, v any) (bool, error) { return getJSON(db, key, v) }

// Compact rewrites the snapshot with the live data and truncates the
// WAL. Close runs it; the crash suites drive it directly to reach the
// compaction window.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.compactLocked()
}

// Probe appends and fsyncs a no-op WAL record, verifying the append
// path end to end without touching any key. The daemon's degraded-mode
// logic uses it to classify persistent disk faults and to detect when a
// full or failing disk has recovered.
func (db *DB) Probe() error {
	req := newReq(opProbe, "", nil)
	req.payload = encodeOp(req.payload[:0], opProbe, "", nil)
	return db.finish(req)
}

// Close compacts and closes the store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	err := db.compactLocked()
	if db.wal != nil {
		if cerr := db.wal.Close(); err == nil {
			err = cerr
		}
		db.wal = nil
	}
	db.closed = true
	return err
}

func (db *DB) maybeCompactLocked() error {
	if db.opts.CompactEvery > 0 && db.walRecs >= db.opts.CompactEvery {
		return db.compactLocked()
	}
	return nil
}

// commitReq is one Put or Probe queued for a group-commit flush. The
// payload is the encoded WAL record body (op byte | keyLen uvarint |
// key | value, see encodeOp); for a Put, key and value are the map
// entry the leader installs once the record is durable. Requests and
// their payload scratch are pooled: a steady-state Put allocates only
// the map value copy.
type commitReq struct {
	op      byte
	key     string
	value   []byte // opPut: the copy installed into the map
	payload []byte // pooled record-encode scratch, reused across ops
	err     error
	done    chan struct{}
}

// reqPool recycles commitReqs with their encode scratch and ack channel.
var reqPool = sync.Pool{New: func() any { return &commitReq{done: make(chan struct{}, 1)} }}

// newReq checks a request out of the pool.
func newReq(op byte, key string, value []byte) *commitReq {
	r := reqPool.Get().(*commitReq)
	r.op, r.key, r.value, r.err = op, key, value, nil
	return r
}

// releaseReq returns a request to the pool. The map-owned value is
// dropped (never recycled); the payload scratch is kept.
func releaseReq(r *commitReq) {
	r.key, r.value, r.err = "", nil, nil
	reqPool.Put(r)
}

// encodeOp appends one record payload: op byte | keyLen uvarint | key |
// value.
func encodeOp(dst []byte, op byte, key string, value []byte) []byte {
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return dst
}

// finish commits req through the group-commit queue and recycles it.
func (db *DB) finish(req *commitReq) error {
	db.commit(req)
	err := req.err
	releaseReq(req)
	return err
}

// commit runs the group-commit protocol for req. Every writer enqueues
// under qmu; if a flush is already in progress the writer parks on its
// ack channel and the current leader will commit it. Otherwise the
// writer becomes the leader and drains the queue — its own request
// first, then any batches that accumulated while it was flushing — so
// the queue is always emptied and followers never wait on an absent
// leader.
func (db *DB) commit(req *commitReq) {
	db.qmu.Lock()
	db.pending = append(db.pending, req)
	if db.flushing {
		db.qmu.Unlock()
		<-req.done
		return
	}
	db.flushing = true
	// Give writers racing with this one a beat to enqueue before the
	// first swap, so they ride this flush instead of waiting out a
	// whole fsync for the next one.
	db.qmu.Unlock()
	runtime.Gosched()
	db.qmu.Lock()
	for {
		batch := db.pending
		db.pending = db.spare[:0]
		db.qmu.Unlock()

		db.mu.Lock()
		db.flushLocked(batch)
		db.mu.Unlock()
		for _, r := range batch {
			if r != req {
				r.done <- struct{}{}
			}
		}

		db.qmu.Lock()
		db.spare = batch[:0]
		if len(db.pending) == 0 {
			// Linger one scheduling beat before surrendering
			// leadership: the followers just acked are likely already
			// computing their next write, and collecting those into
			// this leader's next flush instead of letting one of them
			// start a batch-of-one roughly doubles the batch size under
			// contention. One yield bounds the added latency to a
			// scheduler pass — noise next to the fsync it saves.
			db.qmu.Unlock()
			runtime.Gosched()
			db.qmu.Lock()
			if len(db.pending) == 0 {
				db.flushing = false
				db.qmu.Unlock()
				return
			}
		}
	}
}

// flushLocked commits one batch: every record framed (length + CRC-32
// header) into the group buffer, one Write, one Sync, then the map
// mutations — so a batch is acknowledged only once
// every record in it is durable, and all waiters share the fsync. The
// caller holds db.mu. If the log has no usable handle — a compaction
// reset or a tail rollback failed earlier — it first retries the
// repair, so the store (and with it the daemon's degraded mode, whose
// Probe lands here) heals without a restart as soon as the disk
// recovers. A failed flush is rolled back to the last acknowledged
// record and every request in the batch reports the error.
func (db *DB) flushLocked(batch []*commitReq) {
	fail := func(err error) {
		for _, r := range batch {
			r.err = err
		}
	}
	if db.closed {
		fail(ErrClosed)
		return
	}
	if db.wal == nil {
		if err := db.repairWALLocked(); err != nil {
			fail(fmt.Errorf("store: wal unavailable: %w", err))
			return
		}
	}
	buf := db.groupBuf[:0]
	for _, r := range batch {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(r.payload))
		buf = append(buf, r.payload...)
	}
	db.groupBuf = buf[:0]

	//imcf:allow lockdiscipline group-commit leader: one Write under db.mu covers the whole batch; that serialization IS the design
	if _, err := db.wal.Write(buf); err != nil {
		db.rollbackWALTailLocked()
		fail(fmt.Errorf("store: wal append: %w", err))
		return
	}
	start := time.Now()
	//imcf:allow lockdiscipline group-commit leader: one Sync amortized across the batch; followers wait on their request channel, not db.mu
	err := db.wal.Sync()
	fsyncSeconds.Observe(time.Since(start).Seconds())
	walFsyncs.Inc()
	if err != nil {
		db.rollbackWALTailLocked()
		fail(fmt.Errorf("store: wal sync: %w", err))
		return
	}
	groupBatchSize.Observe(float64(len(batch)))
	db.walSize += int64(len(buf))
	walBytes.Add(float64(len(buf)))
	for _, r := range batch {
		db.walRecs++
		walAppends.Inc()
		if r.op == opPut { // a probe has no data effect
			db.data[r.key] = r.value
		}
	}
	if err := db.maybeCompactLocked(); err != nil {
		// Every record is already durable; only the follow-up
		// compaction failed. Surface it to the batch like the serial
		// path surfaced it to its caller.
		fail(err)
	}
}

// rollbackWALTailLocked discards the bytes of a failed append so the
// log ends at the last acknowledged record. A short write (ENOSPC
// mid-record) leaves torn bytes at the tail; left in place, appends
// after the disk recovered would be acknowledged beyond them, and the
// next replay — which truncates at the first bad record — would
// silently discard those acknowledged writes. If the truncate itself
// fails, the handle is closed and the log marked unusable; flushLocked
// repairs it (retrying the truncate) before accepting any new append.
func (db *DB) rollbackWALTailLocked() {
	if err := db.fs.Truncate(db.walPath(), db.walSize); err != nil {
		db.walErr = err
		if db.wal != nil {
			db.wal.Close() //nolint:errcheck // the append failure is already being returned
			db.wal = nil
		}
	}
}

// repairWALLocked re-establishes a usable append handle after the log
// was marked unusable: it truncates the file back to the last-good
// offset — dropping a torn tail after a failed rollback, or the whole
// folded-in log after a failed compaction reset (walSize 0) — reopens
// it for append, and restamps the header when the log restarts empty.
// Reached from flushLocked, this is how Probe verifies and repairs the
// log tail before reporting the write path healthy again.
func (db *DB) repairWALLocked() error {
	if err := db.fs.Truncate(db.walPath(), db.walSize); err != nil {
		// A missing file is only acceptable when nothing acknowledged
		// lives in the log; OpenFile below recreates it.
		if db.walSize > 0 || !errors.Is(err, os.ErrNotExist) {
			db.walErr = err
			return fmt.Errorf("repair wal tail: %w", err)
		}
	}
	wal, err := db.fs.OpenFile(db.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		db.walErr = err
		return fmt.Errorf("reopen wal: %w", err)
	}
	db.wal = wal
	if db.walSize == 0 {
		if err := db.writeWALHeader(); err != nil {
			db.wal = nil
			db.walErr = err
			wal.Close() //nolint:errcheck // the header-write error is already being returned
			return err
		}
	}
	db.walErr = nil
	return nil
}

// replayWAL applies WAL records on top of the snapshot. A torn or
// corrupt tail ends replay and is truncated from the file so subsequent
// appends extend a clean log.
func (db *DB) replayWAL() (int, error) {
	f, err := db.fs.OpenFile(db.walPath(), os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open wal for replay: %w", err)
	}
	defer f.Close()

	// The log must carry the snapshot's generation. A mismatch means a
	// crash raced a compaction and resurrected a stale log (its records
	// are already folded into the snapshot — replaying a prefix of them
	// could undo folded-in history); a short or garbled header is a torn
	// reset. Either way every usable record is in the snapshot already,
	// so the log restarts empty at the current generation.
	//
	// Exception: a store written before the header existed (snapshot
	// version 1) has records starting at offset zero. It is recognised
	// by the absence of the magic together with generation 0 — every
	// compacted snapshot carries gen >= 1, so a post-compaction stale
	// log can never be mistaken for it — and replayed headerless; the
	// records are CRC-gated like any others. The next compaction
	// rewrites both files in the current format.
	var whdr [walHeaderLen]byte
	n, err := io.ReadFull(f, whdr[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, fmt.Errorf("store: read wal header: %w", err)
	}
	headerOK := n == walHeaderLen &&
		[4]byte(whdr[:4]) == walMagic &&
		whdr[4] == walVersion &&
		binary.LittleEndian.Uint64(whdr[8:]) == db.gen
	legacy := !headerOK && db.gen == 0 &&
		(n < len(walMagic) || [4]byte(whdr[:4]) != walMagic)
	if !headerOK && !legacy {
		if err := db.fs.Truncate(db.walPath(), 0); err != nil {
			return 0, fmt.Errorf("store: reset stale wal: %w", err)
		}
		return 0, nil
	}

	var (
		hdr    [8]byte
		r      io.Reader = f
		offset           = int64(walHeaderLen)
		count  int
	)
	if legacy {
		// Re-feed the bytes consumed by the header probe.
		r = io.MultiReader(bytes.NewReader(whdr[:n]), f)
		offset = 0
	}
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn header: stop
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if plen == 0 || plen > 1<<30 {
			break // implausible: treat as corruption
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn record
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break // corrupt record
		}
		if err := db.applyPayload(payload); err != nil {
			break
		}
		offset += int64(8 + plen)
		count++
	}
	// Truncate anything after the last good record.
	if size, err := db.fs.Size(db.walPath()); err == nil && size > offset {
		if err := db.fs.Truncate(db.walPath(), offset); err != nil {
			return count, fmt.Errorf("store: truncate torn wal: %w", err)
		}
		obs.L().LogAttrs(context.Background(), slog.LevelWarn, "store truncated torn wal tail",
			slog.String("path", db.walPath()),
			slog.Int64("kept_bytes", offset),
			slog.Int64("dropped_bytes", size-offset))
	}
	return count, nil
}

func (db *DB) applyPayload(p []byte) error {
	if len(p) < 2 {
		return errors.New("store: short wal payload")
	}
	op := p[0]
	klen, n := binary.Uvarint(p[1:])
	if n <= 0 || int(klen) > len(p)-1-n {
		return errors.New("store: bad wal key length")
	}
	key := string(p[1+n : 1+n+int(klen)])
	val := p[1+n+int(klen):]
	switch op {
	case opPut:
		cp := make([]byte, len(val))
		copy(cp, val)
		db.data[key] = cp
	case opProbe:
		// Write-path probe: no data effect.
	default:
		return fmt.Errorf("store: unknown wal op %d", op)
	}
	return nil
}

// compactLocked writes a fresh snapshot atomically (write temp +
// rename + directory sync) and truncates the WAL. The ordering is the
// durability argument: the snapshot content is synced before the
// rename, and the rename is made durable (SyncDir) before a single
// WAL byte is dropped, so at every crash point the directory holds
// either the old snapshot with the full log or the new snapshot with
// a log whose records are already folded into it.
func (db *DB) compactLocked() error {
	storeCompactions.Inc()
	// The new snapshot opens a new generation; the reset WAL is stamped
	// with it, so a crash that resurrects the pre-compaction log leaves
	// a generation mismatch replay can detect.
	db.gen++
	tmp := db.snapPath() + ".tmp"
	f, err := db.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create snapshot: %w", err)
	}
	// Close exactly once, with the error checked on every path: a
	// close failure on the write path can mean lost snapshot bytes.
	werr := db.writeSnapshotLocked(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		// Don't leak the torn temp snapshot; removal is best-effort
		// (the disk may be gone entirely).
		db.fs.Remove(tmp) //nolint:errcheck // cleanup after a failure already being returned
		if werr != nil {
			return werr
		}
		return fmt.Errorf("store: close snapshot: %w", cerr)
	}
	if err := db.fs.Rename(tmp, db.snapPath()); err != nil {
		db.fs.Remove(tmp) //nolint:errcheck // cleanup after a failure already being returned
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	// Make the rename durable before touching the WAL: if the log were
	// reset first and power failed, the directory could hold the old
	// snapshot next to an empty log — every record since the previous
	// snapshot silently gone.
	//imcf:allow lockdiscipline snapshot install must serialize against writers; db.mu held across SyncDir is the crash-safety invariant
	if err := db.fs.SyncDir(db.opts.Dir); err != nil {
		return fmt.Errorf("store: sync dir after snapshot install: %w", err)
	}

	// Reset the WAL. The installed snapshot holds every record, so the
	// log is logically empty from here: the last-good offset drops to
	// zero and repairWALLocked rebuilds the handle (truncate, reopen,
	// restamp the header with the new generation). On failure db.wal
	// stays nil and the next append — including the degraded-mode
	// Probe — retries the repair, so the store heals without a restart
	// once the disk recovers.
	old := db.wal
	db.wal = nil
	db.walSize = 0
	db.walRecs = 0
	if old != nil {
		if err := old.Close(); err != nil {
			db.walErr = err
			return fmt.Errorf("store: close wal: %w", err)
		}
	}
	if err := db.repairWALLocked(); err != nil {
		return fmt.Errorf("store: reset wal: %w", err)
	}
	return nil
}

// writeSnapshotLocked streams the snapshot body (header, sorted
// records, CRC tail) to f and syncs it. The caller owns closing f.
func (db *DB) writeSnapshotLocked(f faultfs.File) error {
	crc := crc32.NewIEEE()
	w := io.MultiWriter(f, crc)

	hdr := make([]byte, 0, 24)
	hdr = append(hdr, snapMagic[:]...)
	hdr = append(hdr, snapVersion, 0, 0, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, db.gen)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(db.data)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	keys := make([]string, 0, len(db.data))
	for k := range db.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		v := db.data[k]
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	//imcf:allow lockdiscipline snapshot write runs under db.mu so no record lands between scan and fsync; compaction pauses writers by design
	if _, err := f.Write(tail[:]); err != nil {
		return err
	}
	//imcf:allow lockdiscipline snapshot fsync completes the same writer-paused critical section
	return f.Sync()
}

// loadSnapshot reads the snapshot file if present.
func (db *DB) loadSnapshot() error {
	b, err := db.fs.ReadFile(db.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(b) < 20 {
		return errors.New("store: snapshot too short")
	}
	if [4]byte(b[:4]) != snapMagic {
		return errors.New("store: snapshot bad magic")
	}
	version := b[4]
	if version != snapVersionLegacy && version != snapVersion {
		return fmt.Errorf("store: snapshot unsupported version %d", version)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return errors.New("store: snapshot checksum mismatch")
	}
	// A version-1 header is 16 bytes and carries no generation: the
	// store opens at gen 0, which also tells replayWAL to expect the
	// headerless v1 log. The next compaction rewrites the snapshot in
	// the current format.
	var count uint64
	var p []byte
	if version == snapVersionLegacy {
		count = binary.LittleEndian.Uint64(b[8:16])
		p = body[16:]
	} else {
		if len(b) < 28 {
			return errors.New("store: snapshot too short")
		}
		db.gen = binary.LittleEndian.Uint64(b[8:16])
		count = binary.LittleEndian.Uint64(b[16:24])
		p = body[24:]
	}
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)) < uint64(n)+klen {
			return errors.New("store: snapshot truncated entry key")
		}
		p = p[n:]
		key := string(p[:klen])
		p = p[klen:]
		vlen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)) < uint64(n)+vlen {
			return errors.New("store: snapshot truncated entry value")
		}
		p = p[n:]
		val := make([]byte, vlen)
		copy(val, p[:vlen])
		p = p[vlen:]
		db.data[key] = val
	}
	if len(p) != 0 {
		return errors.New("store: snapshot trailing garbage")
	}
	return nil
}
