package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/ml/cart"
	"otacache/internal/obs"
)

// Crash-safe state: a daemon restart must resume warm. Without it, a
// restarted cache re-admits its entire working set — exactly the
// one-time-ish write burst the paper's admission policy exists to
// avoid — and the history table forgets every recent bypass, so early
// reaccesses lose their second chance. A snapshot therefore persists
// the three pieces of state that make admission decisions stateful:
//
//   - each shard policy's resident set, in cold-to-hot order
//     (cache.Ranger), so re-admission rebuilds the eviction order;
//   - each shard history table's live records, in FIFO order;
//   - the current CART tree (which may be newer than any file on disk
//     after live retraining or a hot-swap);
//
// plus the global tick counter, so restored reaccess distances stay
// meaningful under the resumed numbering.
//
// # File format (version 2)
//
// Little-endian throughout:
//
//	magic   uint32  0x0ca27510 ("OTA snapshot")
//	version uint32  2
//	tick    int64   next tick the engine will assign
//	shards  uint32  shard-section count, then per shard:
//	  resCnt  uint64  resident count, then resCnt x (key uint64, size int64)
//	  hasTab  uint8   1 if a history table section follows
//	  tabCnt  uint64  live entries, then tabCnt x (key uint64, tick int64)
//	  hasTree uint8   1 if a cart.Tree stream (cart.(*Tree).WriteTo) follows
//
// Presence bytes are 0 or 1, and the stream ends with the last shard
// section; anything else is corruption. testdata/snapshot_v2.golden is a
// committed example of this layout, and TestSnapshotGolden fails if the
// encoder or decoder drifts from it.
//
// Restoring does NOT require the stored and configured shard counts to
// match: every record routes through the restoring engine's own
// routing (engine.Server.ShardFor), so a 4-shard snapshot reshards cleanly into
// a 2-shard daemon and vice versa. Shard sections are collected in
// parallel on write and applied in parallel on restore (one worker per
// target shard, which also keeps each shard's re-admission order
// deterministic).
//
// Compatibility: the version is bumped on any layout change and
// ReadSnapshot rejects versions it does not know — a daemon never
// guesses at state (version-1 files from older builds read as a cold
// start). A missing or corrupt snapshot is a cold start, not a crash:
// callers should log and serve cold. Snapshots do not record the
// policy/filter configuration; restoring into a differently configured
// engine is allowed (keys re-admit under the new policy, oversized
// sections are skipped), which is also what makes the format
// forward-useful for capacity and shard-count changes.
const (
	snapMagic   = uint32(0x0ca27510)
	snapVersion = uint32(2)
)

// SnapshotResult summarizes one written snapshot.
type SnapshotResult struct {
	// Shards is the number of shard sections in the snapshot.
	Shards int
	// Residents and ResidentBytes describe the persisted resident set,
	// summed across shards.
	Residents     int
	ResidentBytes int64
	// TableEntries is the number of history-table records persisted,
	// summed across shards.
	TableEntries int
	// HasTree reports whether the current classifier was persisted.
	HasTree bool
	// Tick is the engine tick the snapshot resumes from.
	Tick int64
	// FileBytes is the snapshot size on disk (0 for WriteSnapshot to a
	// plain writer).
	FileBytes int64
}

// shardState is one shard's collected warm state, gathered before any
// byte is written so the shard walks can run in parallel.
type shardState struct {
	residents []snapResident
	bytes     int64
	hasTable  bool
	entries   []core.TableEntry
	tree      *cart.Tree
}

type snapResident struct {
	key  uint64
	size int64
}

// WriteSnapshot serializes the engine's warm state to w, one section
// per shard. The engine may be serving concurrently: each section is
// internally consistent (a policy is walked stripe by stripe under the
// lock its requests take, a table under its own), though the sections
// are not one atomic cut —
// the same property engine.Snapshot has, and sufficient for a warm
// restart. Shard states are collected by one goroutine per shard, so a
// wide daemon is not serialized on its coldest shard's walk.
func WriteSnapshot(w io.Writer, srv engine.Server) (SnapshotResult, error) {
	var res SnapshotResult
	shards := srv.Shards()
	for i, sh := range shards {
		if _, ok := cache.AsRanger(sh.Policy()); !ok {
			return res, fmt.Errorf("snapshot: shard %d policy %s cannot enumerate residents", i, sh.Policy().Name())
		}
	}

	states := make([]shardState, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &states[i]
			// Resident set, cold to hot. Collected so the count can be
			// written before the records.
			shards[i].RangeResidents(func(key uint64, size int64) bool {
				st.residents = append(st.residents, snapResident{key, size})
				st.bytes += size
				return true
			})
			if adm := engine.Admission(shards[i].Filter()); adm != nil {
				if adm.Table() != nil {
					st.hasTable = true
					st.entries = adm.Table().Entries()
				}
				// Classifier: only a cart.Tree has a serial form; other
				// classifier types restart from their bootstrap model.
				st.tree, _ = adm.Classifier().(*cart.Tree)
			}
		}(i)
	}
	wg.Wait()

	bw := bufio.NewWriter(w)
	put := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }

	res.Tick = srv.Tick()
	res.Shards = len(shards)
	for _, v := range []any{snapMagic, snapVersion, res.Tick, uint32(len(shards))} {
		if err := put(v); err != nil {
			return res, err
		}
	}

	for si := range states {
		st := &states[si]
		res.Residents += len(st.residents)
		res.ResidentBytes += st.bytes
		if err := put(uint64(len(st.residents))); err != nil {
			return res, err
		}
		for _, r := range st.residents {
			if err := put(r.key); err != nil {
				return res, err
			}
			if err := put(r.size); err != nil {
				return res, err
			}
		}

		// History table.
		if !st.hasTable {
			if err := put(uint8(0)); err != nil {
				return res, err
			}
		} else {
			if err := put(uint8(1)); err != nil {
				return res, err
			}
			res.TableEntries += len(st.entries)
			if err := put(uint64(len(st.entries))); err != nil {
				return res, err
			}
			for _, e := range st.entries {
				if err := put(e.Key); err != nil {
					return res, err
				}
				if err := put(int64(e.Tick)); err != nil {
					return res, err
				}
			}
		}

		if st.tree == nil {
			if err := put(uint8(0)); err != nil {
				return res, err
			}
		} else {
			if err := put(uint8(1)); err != nil {
				return res, err
			}
			if err := bw.Flush(); err != nil {
				return res, err
			}
			if _, err := st.tree.WriteTo(bw); err != nil {
				return res, err
			}
			res.HasTree = true
		}
	}
	return res, bw.Flush()
}

// SaveSnapshot writes the snapshot to path atomically: the bytes land
// in path+".tmp", are fsynced, and replace path with a rename, so a
// crash mid-write leaves the previous snapshot intact and a reader
// never observes a torn file.
func SaveSnapshot(path string, srv engine.Server) (SnapshotResult, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return SnapshotResult{}, err
	}
	res, err := WriteSnapshot(f, srv)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		//lint:allow errsink best-effort temp cleanup on the failure path; the write error already reports
		os.Remove(tmp)
		return res, fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		//lint:allow errsink best-effort temp cleanup on the failure path; the rename error already reports
		os.Remove(tmp)
		return res, err
	}
	if fi, err := os.Stat(path); err == nil {
		res.FileBytes = fi.Size()
	}
	// Persist the rename itself.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		//lint:allow errsink directory fsync is best-effort durability; failure cannot unwind the completed rename
		dir.Sync()
		//lint:allow errsink read-side close of the directory handle; nothing to account
		dir.Close()
	}
	return res, nil
}

// restoreRec is one decoded snapshot record routed to a target shard's
// apply worker: a resident (val = size) or a table entry (val = tick).
type restoreRec struct {
	key   uint64
	val   int64
	table bool
}

// ReadSnapshot restores warm state from r into a freshly built engine
// (empty policies, bootstrap classifier): the tick counter resumes,
// each snapshotted resident is re-admitted in cold-to-hot order,
// history records are re-inserted in FIFO order, and the persisted
// tree (if any) replaces the bootstrap classifier in every shard.
// Restore before serving — ideally behind a readiness gate.
//
// The stored shard count need not match srv's: every record is routed
// through srv's own routing (ShardFor), so restoring reshards. The stream
// is decoded fully — every shard section and the classifier — before a
// single record is applied: a truncated or corrupt snapshot (a crash
// mid-rotation, a bad disk) is rejected with the engine still exactly
// cold, never half-warm with an eviction order no run ever produced.
// Application is then parallel — one worker per target shard — while
// per-shard order stays the decoded order, keeping each shard's
// eviction order deterministic.
//
// State that does not fit the engine is skipped, not fatal: a smaller
// cache simply evicts during re-admission, an admit-all engine ignores
// the table and tree sections.
func ReadSnapshot(r io.Reader, srv engine.Server) (SnapshotResult, error) {
	var res SnapshotResult
	br := bufio.NewReader(r)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic, version uint32
	if err := get(&magic); err != nil {
		return res, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if magic != snapMagic {
		return res, fmt.Errorf("snapshot: bad magic %#x", magic)
	}
	if err := get(&version); err != nil {
		return res, err
	}
	if version != snapVersion {
		return res, fmt.Errorf("snapshot: unsupported version %d (have %d)", version, snapVersion)
	}
	var tick int64
	if err := get(&tick); err != nil {
		return res, err
	}
	if tick < 0 {
		return res, fmt.Errorf("snapshot: negative tick %d", tick)
	}
	res.Tick = tick
	var storedShards uint32
	if err := get(&storedShards); err != nil {
		return res, err
	}
	if storedShards == 0 || storedShards > 1<<16 {
		return res, fmt.Errorf("snapshot: implausible shard count %d", storedShards)
	}
	res.Shards = int(storedShards)

	shards := srv.Shards()
	admissions := make([]*core.ClassifierAdmission, len(shards))
	hasDest := make([]bool, len(shards))
	for i, sh := range shards {
		admissions[i] = engine.Admission(sh.Filter())
		hasDest[i] = admissions[i] != nil && admissions[i].Table() != nil
	}

	// Decode-then-apply: the loop below only buffers records, routed to
	// their target shard; nothing touches a policy or table until the
	// whole stream has decoded. An error mid-stream therefore returns
	// with the engine untouched.
	pending := make([][]restoreRec, len(shards))

	var tree *cart.Tree
	for si := uint32(0); si < storedShards; si++ {
		var count uint64
		if err := get(&count); err != nil {
			return res, err
		}
		for i := uint64(0); i < count; i++ {
			var key uint64
			var size int64
			if err := get(&key); err != nil {
				return res, fmt.Errorf("snapshot: shard %d resident %d/%d: %w", si, i, count, err)
			}
			if err := get(&size); err != nil {
				return res, fmt.Errorf("snapshot: shard %d resident %d/%d: %w", si, i, count, err)
			}
			if size <= 0 {
				return res, fmt.Errorf("snapshot: resident %d has size %d", i, size)
			}
			dest := srv.ShardFor(key)
			pending[dest] = append(pending[dest], restoreRec{key: key, val: size})
			res.Residents++
			res.ResidentBytes += size
		}

		var hasTable uint8
		if err := get(&hasTable); err != nil {
			return res, err
		}
		if hasTable > 1 {
			return res, fmt.Errorf("snapshot: shard %d table presence byte %d", si, hasTable)
		}
		if hasTable == 1 {
			if err := get(&count); err != nil {
				return res, err
			}
			for i := uint64(0); i < count; i++ {
				var key uint64
				var etick int64
				if err := get(&key); err != nil {
					return res, fmt.Errorf("snapshot: shard %d table entry %d/%d: %w", si, i, count, err)
				}
				if err := get(&etick); err != nil {
					return res, fmt.Errorf("snapshot: shard %d table entry %d/%d: %w", si, i, count, err)
				}
				// Every tick was handed out before the header's was read.
				if etick < 0 || etick > tick {
					return res, fmt.Errorf("snapshot: shard %d table entry %d has tick %d outside [0, %d]", si, i, etick, tick)
				}
				dest := srv.ShardFor(key)
				if hasDest[dest] {
					pending[dest] = append(pending[dest], restoreRec{key: key, val: etick, table: true})
					res.TableEntries++
				}
			}
		}

		var hasTree uint8
		if err := get(&hasTree); err != nil {
			return res, err
		}
		if hasTree > 1 {
			return res, fmt.Errorf("snapshot: shard %d tree presence byte %d", si, hasTree)
		}
		if hasTree == 1 {
			// Every stored section carries the (shared) classifier; the
			// first decoded tree is installed into every target shard,
			// the rest only advance the stream.
			shardTree, err := cart.ReadTree(br)
			if err != nil {
				return res, fmt.Errorf("snapshot: classifier: %w", err)
			}
			if tree == nil {
				tree = shardTree
			}
		}
	}

	if _, err := br.ReadByte(); err == nil {
		return res, fmt.Errorf("snapshot: trailing bytes after shard %d", storedShards-1)
	} else if err != io.EOF {
		return res, fmt.Errorf("snapshot: reading past shard %d: %w", storedShards-1, err)
	}

	// The stream decoded completely — only now touch engine state. One
	// apply worker per target shard: with a single worker per shard even
	// bare (unsynchronized) policies are safe, and each shard re-admits
	// in the decoded (cold-to-hot) order.
	var wg sync.WaitGroup
	for i := range pending {
		if len(pending[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var table interface{ Insert(key uint64, tick int) }
			if hasDest[i] {
				table = admissions[i].Table()
			}
			// Under a flash shard's lock: the admits' evictions reach the
			// store, which a running scrubber steps under the same lock.
			shards[i].WithFlash(func(policy cache.Policy, _ *flash.Store) {
				for _, rec := range pending[i] {
					if rec.table {
						table.Insert(rec.key, int(rec.val))
					} else {
						policy.Admit(rec.key, rec.val, 0)
					}
				}
			})
		}(i)
	}
	wg.Wait()
	if tree != nil {
		for _, adm := range admissions {
			if adm != nil {
				adm.SetClassifier(tree)
				res.HasTree = true
			}
		}
	}
	// With residency fully applied, re-materialize the flash layer from
	// the restored policies: extents are rebuilt as uncharged Restore
	// writes (the device paid for them in its previous life), so the
	// measured WAF picks up where the old process left off instead of
	// absorbing a phantom write burst. No wire-format change — the store
	// is derived state.
	engine.RebuildFlash(srv)
	srv.ResumeTick(tick)
	return res, nil
}

// LoadSnapshot restores from a file. A missing file returns
// os.ErrNotExist (cold start); any other error means the file exists
// but could not be restored.
func LoadSnapshot(path string, srv engine.Server) (SnapshotResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotResult{}, err
	}
	//lint:allow errsink read-side close; ReadSnapshot already consumed the stream
	defer f.Close()
	return ReadSnapshot(f, srv)
}

// Snapshotter owns a snapshot file for one engine: a timer loop writes
// periodically, WriteNow serves the admin endpoint and the final
// SIGTERM write, and concurrent writers are serialized so two triggers
// cannot interleave their temp files.
type Snapshotter struct {
	eng  engine.Server
	path string

	// now and hist, when set together (SetObserver), time every
	// successful write into the server's snapshot-save histogram.
	now  func() time.Time
	hist *obs.Histogram

	mu   sync.Mutex
	last SnapshotResult
}

// NewSnapshotter builds a snapshotter writing to path.
func NewSnapshotter(eng engine.Server, path string) *Snapshotter {
	return &Snapshotter{eng: eng, path: path}
}

// Path returns the snapshot file path.
func (sn *Snapshotter) Path() string { return sn.path }

// SetObserver attaches latency measurement: every successful WriteNow
// records its duration on hist using the injected clock read. The
// server wires this in AttachSnapshotter so periodic, admin-triggered,
// and shutdown writes all land on /metrics.
func (sn *Snapshotter) SetObserver(now func() time.Time, hist *obs.Histogram) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.now, sn.hist = now, hist
}

// WriteNow writes one snapshot atomically.
func (sn *Snapshotter) WriteNow() (SnapshotResult, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	var start time.Time
	if sn.hist != nil {
		start = sn.now()
	}
	res, err := SaveSnapshot(sn.path, sn.eng)
	if err == nil {
		sn.last = res
		if sn.hist != nil {
			sn.hist.Record(int64(sn.now().Sub(start)))
		}
	}
	return res, err
}

// Last returns the most recent successful write's summary.
func (sn *Snapshotter) Last() SnapshotResult {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.last
}

// Run writes a snapshot every interval until ctx is cancelled, logging
// one line per write (logf nil discards). It does not write a final
// snapshot on cancellation — the daemon does that explicitly after the
// drain completes, when the counters have settled.
func (sn *Snapshotter) Run(ctx context.Context, interval time.Duration, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if interval <= 0 {
		interval = 5 * time.Minute
	}
	//lint:allow detclock the periodic snapshot loop runs on wall time by design; tests drive WriteNow directly
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			res, err := sn.WriteNow()
			if err != nil {
				logf("snapshot: %v", err)
				continue
			}
			logf("snapshot: %d residents (%d MB), %d table entries, tree=%v, %d bytes -> %s",
				res.Residents, res.ResidentBytes>>20, res.TableEntries, res.HasTree,
				res.FileBytes, sn.path)
		}
	}
}
