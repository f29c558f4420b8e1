// Package flash implements a log-structured flash store: the device
// layer under the serving engine that actually holds cached object
// payloads and pays real erase-block costs, instead of assuming a
// hand-picked write amplification factor.
//
// The layout is the one production SSD caches use (Flashield, RIPQ):
// the store's capacity is divided into fixed-size segments mapped onto
// erase blocks. Records append to one of three open head segments; an
// object index maps key -> (segment, offset, length). An object dies
// when it is overwritten or invalidated. The serving engine invalidates
// from the replacement policy's eviction callback (cache.Policy's
// SetEvictNotify), so every segment's live-byte count is exact at all
// times and the store never calls the policy. Dead space is reclaimed
// by a greedy garbage collector: when the free-segment pool runs low it
// picks the sealed segment with the fewest live bytes, relocates the
// survivors to a head, and erases the block. Those relocations are
// exactly where GC-induced write amplification comes from, so the
// store measures it instead of guessing:
//
//	WAF = (host bytes + relocated bytes) / host bytes
//
// plus erase counts per block, which ssd.Endurance turns into a live
// lifetime estimate (Endurance.WithMeasuredWAF).
//
// A pass runs inside a host Write, under the lock every hit on the
// shard also needs, so it consults the index cheaply instead of twice.
// The greedy choice reads one dense victim array, a segment's live
// bytes while it is sealed and unretired and math.MaxInt64 otherwise,
// kept current at every change to a segment's state.
//
// The index entry is the one description of an extent: its segment,
// list position, record offset, size and checksum fill a 32-byte index
// node, so a hit reads the index and the device and nothing else. A
// segment keeps only a list of 4-byte index slots, one per record in
// append order, and a list entry is live exactly when the slot's node
// is in use and names it back. The collector, a block retirement and
// the scrubber walk that list and confirm each record with one node
// read, not a hash probe.
//
// Which head a record goes to is its placement class, the LFS
// hot/cold separation (Rosenblum and Ousterhout 1992) keyed by how many
// collections the record has survived (as MiDAS, FAST '24, groups by
// GC age): host writes fill one head, first-time survivors a second,
// and repeat survivors a third. An object that outlived one pass is
// likely to outlive the next, so keeping survivors out of the host
// head's segments stops one-time objects from dying around them and
// dragging them through pass after pass.
//
// Below the store sits a Device — the raw program/read/erase seam.
// Real NAND fails: reads come back uncorrectable, programs and erases
// fail as blocks wear out. The store defends itself the way an SSD
// FTL does: every extent is written as a record checksummed with
// CRC-32C (Castagnoli) and verified on read; a failed program or erase
// retires the block into a finite spare pool, relocating its live
// extents; a scrub pass (ScrubStep) walks sealed segments and drops
// extents whose checksums no longer verify, so silent corruption is
// found before a client asks for it. When retirements exhaust the
// spare pool the device is end-of-life (Exhausted) and the serving
// layer flips unready.
//
// A Store is not safe for concurrent use: its caller serializes every
// call, as with slab.Arena. The serving stack runs one store per engine
// shard and calls it only under that shard's lock.
package flash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"

	"otacache/internal/slab"
)

// minSegments is the smallest segment count a store operates with. At
// four, the three heads leave as few as one sealed segment to collect:
// an append that finds no free segment then falls back to any open head
// with room (appendObj), and a stalled head is collected in its place
// (collectPass).
const minSegments = 4

// Placement classes: the append head a record goes to. A segment takes
// the class of the head it was opened as.
const (
	// classHost holds host writes.
	classHost = iota
	// classSurvivor holds first-time survivors, relocated off a
	// host-class segment.
	classSurvivor
	// classRepeat holds survivors of a survivor- or repeat-class segment,
	// and the residents a snapshot rebuild restores: they outlived the
	// previous process, however many passes that took.
	classRepeat
	numClasses
)

// survivorClass is the class a record moved off a segment of class c
// lands in.
func survivorClass(c uint8) uint8 {
	if c == classHost {
		return classSurvivor
	}
	return classRepeat
}

// recHeaderSize is the per-extent record header programmed to the
// device ahead of the payload: key (8 bytes LE) + logical size (8
// bytes LE). Header bytes are accounted like NAND out-of-band spare
// area — they do not consume the logical segment budget, only the
// device's physical image.
const recHeaderSize = 16

// maxSegmentSize is the largest segment New accepts: an index entry
// keeps an extent's logical size in 32 bits.
const maxSegmentSize = math.MaxInt32 - recHeaderSize

// castagnoli is the CRC-32C table every record is checksummed with; the
// crc32 package computes it with the SSE4.2 (or ARMv8) CRC instruction
// where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors for the write and read paths.
var (
	// ErrOversize rejects writes that cannot fit in one erase block
	// (and, with the same sentinel, non-positive sizes). The stale
	// extent for the key, if any, is still invalidated.
	ErrOversize = errors.New("flash: object exceeds one erase block")
	// ErrNoSpace rejects writes when the collector cannot free a
	// segment — a store sized with sane overprovisioning never returns
	// this.
	ErrNoSpace = errors.New("flash: no free segment")
	// ErrNotFound reports a key with no live extent.
	ErrNotFound = errors.New("flash: extent not found")
	// ErrUncorrectable reports a device read failure (uncorrectable
	// ECC, in real-NAND terms). The extent is dropped.
	ErrUncorrectable = errors.New("flash: uncorrectable read")
	// ErrCorrupt reports an extent whose stored checksum no longer
	// matches its bytes (silent media corruption). The extent is
	// dropped.
	ErrCorrupt = errors.New("flash: extent checksum mismatch")
)

// Device is the raw byte-storage seam under the store: NAND-shaped
// program/read/erase over fixed segment (erase-block) ids. Offsets are
// physical offsets within a segment's image, which may exceed the
// logical segment size by per-extent header overhead (see
// recHeaderSize). The store calls its device one call at a time, so
// implementations need not be concurrency-safe on their own.
type Device interface {
	// Program writes p at physical offset off in segment seg. A failed
	// program retires the block.
	Program(seg int, off int64, p []byte) error
	// Read fills p from physical offset off in segment seg. A failed
	// read is an uncorrectable extent.
	Read(seg int, off int64, p []byte) error
	// Erase wipes segment seg. A failed erase retires the block.
	Erase(seg int) error
}

// memDevice is the default in-RAM Device: one lazily grown byte slice
// per segment. An erase truncates the image and keeps its capacity, so
// erasing allocates nothing and the next lap appends into the same
// bytes. A block's footprint is therefore its largest lap, not its
// current one: next to an erase that freed the image, the device holds
// up to the free pool times the bytes one lap programs (the segment
// size plus a 16-byte record header per extent) more.
type memDevice struct {
	segs [][]byte
}

// NewMemDevice builds the default in-memory device with the given
// segment count. Exported so fault-injecting wrappers (faults.Device)
// can interpose on a real byte store.
func NewMemDevice(segments int) Device {
	return &memDevice{segs: make([][]byte, segments)}
}

func (d *memDevice) Program(seg int, off int64, p []byte) error {
	if seg < 0 || seg >= len(d.segs) || off < 0 {
		return fmt.Errorf("flash: program out of range: segment %d offset %d", seg, off)
	}
	img := d.segs[seg]
	if gap := off - int64(len(img)); gap > 0 {
		// A program past the write head leaves a hole; it reads as zeros,
		// never as what the block held before its last erase.
		img = append(img, make([]byte, gap)...)
	}
	// The store programs at the write head, so this is an append and the
	// image grows on append's amortised schedule instead of being copied
	// whole for every extent.
	n := copy(img[off:], p)
	d.segs[seg] = append(img, p[n:]...)
	return nil
}

func (d *memDevice) Read(seg int, off int64, p []byte) error {
	if seg < 0 || seg >= len(d.segs) || off < 0 || off+int64(len(p)) > int64(len(d.segs[seg])) {
		return fmt.Errorf("flash: read out of range: segment %d offset %d len %d", seg, off, len(p))
	}
	copy(p, d.segs[seg][off:])
	return nil
}

func (d *memDevice) Erase(seg int) error {
	if seg < 0 || seg >= len(d.segs) {
		return fmt.Errorf("flash: erase out of range: segment %d", seg)
	}
	d.segs[seg] = d.segs[seg][:0]
	return nil
}

// Config sizes one store.
type Config struct {
	// SegmentSize is the erase-block size in bytes. Objects larger than
	// one segment are not stored (see Stats.Oversize).
	SegmentSize int64
	// Capacity is the device capacity in bytes, rounded up to whole
	// segments (at least minSegments). Size it above the composed
	// policy's capacity — the overprovisioned slack is what gives the
	// collector dead space to reclaim; a store whose live bytes approach
	// its capacity grinds into relocation storms exactly like a real
	// device at 100% utilization.
	Capacity int64
	// Device is the byte-storage seam; nil uses the in-memory default.
	// Fault-drill and test callers wrap NewMemDevice in faults.Device.
	Device Device
	// SpareBlocks is how many block retirements the device absorbs
	// before it is end-of-life (Exhausted). Zero derives a default of
	// 1/8 of the segment count (at least one) — the reserve a real
	// device carves from its overprovisioned slack; engine.AttachFlash
	// sizes it from the actual overprovision instead. Negative is
	// rejected.
	SpareBlocks int
}

// Stats is a point-in-time snapshot of the store's wear counters.
type Stats struct {
	// SegmentSize and Segments describe the fixed layout.
	SegmentSize int64
	Segments    int
	// FreeSegments counts erased segments ready to open as a head.
	FreeSegments int
	// HostBytes counts bytes the caller wrote (admissions); relocations
	// are excluded — they are the amplification, not the cause.
	HostBytes int64
	// GCBytes counts bytes relocated to salvage live objects out of
	// collected or retired segments.
	GCBytes int64
	// Erases counts segment erasures across all blocks.
	Erases int64
	// MinSegmentErases and MaxSegmentErases bound the per-block erase
	// distribution (wear leveling inspection).
	MinSegmentErases int64
	MaxSegmentErases int64
	// LiveBytes is the bytes of live extents: those neither overwritten
	// nor invalidated. With the owner invalidating on every eviction it
	// is exactly the bytes the policy above holds.
	LiveBytes int64
	// Relocations counts objects moved out of collected or retired
	// segments.
	Relocations int64
	// Oversize counts writes rejected for exceeding one segment.
	Oversize int64
	// Dropped counts objects lost because collection could free no
	// segment or because a relocation off a failing block could not
	// read them back — a healthy, sanely overprovisioned store never
	// increments this.
	Dropped int64
	// ReadErrors counts device read failures (uncorrectable extents).
	ReadErrors int64
	// CorruptExtents counts extents dropped for checksum mismatch,
	// whether found by a client read, the scrubber, or a relocation.
	CorruptExtents int64
	// RetiredBlocks counts segments retired after a failed program or
	// erase; SpareBlocks is the retirement budget and SpareHeadroom
	// what remains of it (never negative).
	RetiredBlocks int64
	SpareBlocks   int64
	SpareHeadroom int64
	// ScrubbedSegments counts scrub passes over individual segments
	// (cumulative, so it exceeds Segments once the scrubber laps).
	ScrubbedSegments int64
	// Exhausted reports device end-of-life: retirements have consumed
	// the whole spare pool.
	Exhausted bool
}

// WAF returns the measured write amplification factor,
// (host + relocated) / host. An unwritten store reports 1 (the floor:
// a log-structured device never amplifies below the host stream).
func (s Stats) WAF() float64 {
	if s.HostBytes == 0 {
		return 1
	}
	return float64(s.HostBytes+s.GCBytes) / float64(s.HostBytes)
}

// entry is the index's payload and the only description of a live
// extent: 24 bytes, so an index node (key and entry) is 32 and a hit
// reads one node line of it.
type entry struct {
	// physOff places the checksummed record (header + optional payload)
	// in the segment's device image.
	physOff int64
	// seg and slot name the record: position slot of segment seg's
	// slots list holds this entry's index slot. seg is -1 while the
	// extent is on no segment: from just before the index frees the
	// slot, and while a collection survivor is staged off its victim.
	seg, slot int32
	// sz is the logical size (what the cache above accounts), negated
	// when the record carries payload bytes; an extent-only record is a
	// header alone.
	sz  int32
	crc uint32
}

func (e *entry) hasData() bool { return e.sz < 0 }

func (e *entry) size() int64 {
	if e.sz < 0 {
		return -int64(e.sz)
	}
	return int64(e.sz)
}

// physLen is the length of the record in the device image.
func (e *entry) physLen() int {
	if e.sz < 0 {
		return recHeaderSize - int(e.sz)
	}
	return recHeaderSize
}

// names reports whether e is the record at position slot of segment id.
func (e *entry) names(id, slot int) bool { return int(e.seg) == id && int(e.slot) == slot }

// segment is one erase block.
type segment struct {
	// slots holds the index slot of each record in append order, dead
	// ones included until the erase; position p is live exactly when its
	// slot's node is in use and names (segment, p).
	slots  []int32
	used   int64 // logical write head (includes dead extents until erase)
	phys   int64 // physical write head in the device image
	live   int64 // bytes of the live records, see Stats.LiveBytes
	erases int64
	// sealed marks a segment that is neither an open head nor free: a
	// collection victim candidate.
	sealed bool
	// class is the placement class of the head the segment was last
	// opened as.
	class uint8
	// retired marks a bad block: a program or erase failed on it, its
	// survivors were relocated, and it never rejoins the free pool.
	retired bool
}

// extent is one record on its way to a head: a host write, or a
// survivor staged for relocation off a collection victim (Store.keep)
// or a retiring block (Store.relocq).
type extent struct {
	key     uint64
	size    int64
	data    []byte
	hasData bool
	// class is the head the extent goes to.
	class uint8
	// crc is the record's CRC-32C, or zero for appendObj to compute. A
	// relocated record has the same bytes as the one it was read from, so
	// it carries that verified checksum (a zero one recomputes to zero).
	crc uint32
	// ix is the index slot a collection survivor keeps while it is in
	// flight; the append writes the new loc into it. slab.Nil means the
	// key is not indexed and the append adds it.
	ix int32
}

// Store is a log-structured flash store. It is not safe for concurrent
// use: the caller serializes every call (the engine holds its shard
// lock); only the observer hook is atomic.
type Store struct {
	segSize int64
	dev     Device
	spare   int64
	// rec is the record buffer readRecord and encodeRecord share; every
	// user is done with (or has copied out of) the bytes before the next
	// record is read or encoded.
	rec []byte
	// obsv is the optional latency observer (see Observer); atomic so
	// attachment may race serving traffic.
	obsv atomic.Pointer[Observer]

	segs []segment
	// victims holds, per segment, the live bytes of a sealed, unretired
	// segment and math.MaxInt64 for any other, so the collector's greedy
	// scan reads one dense array instead of every segment. Every change
	// to a segment's sealed, retired or live state refreshes its entry
	// (noteVictim).
	victims []int64
	free    []int           // erased segment ids, LIFO
	heads   [numClasses]int // open head segment id per class, -1 when closed
	// index maps each key with a live extent to its entry. It grows to
	// the most extents ever live at once and then allocates no more.
	index  slab.Arena[entry]
	relocq []extent // extents awaiting relocation off retired blocks
	// stash lists the index slots one collection pass relocates; keep
	// and keepData stage those survivors and their payloads. Each pass
	// clears and reuses all three.
	stash    []int32
	keep     []extent
	keepData []byte
	scrubAt  int // next segment the scrubber visits

	hostBytes      int64
	gcBytes        int64
	erases         int64
	relocations    int64
	oversize       int64
	dropped        int64
	readErrors     int64
	corruptExtents int64
	retired        int64
	scrubbed       int64
}

// SegmentCount returns how many segments New lays a store of the given
// capacity out in: capacity rounded up to whole segments, and to the
// minimum count the collector needs. A caller that supplies
// Config.Device sizes the device with it.
func SegmentCount(capacity, segmentSize int64) int {
	n := int((capacity + segmentSize - 1) / segmentSize)
	if n < minSegments {
		n = minSegments
	}
	return n
}

// New builds a store. Capacity is rounded up to whole segments and to
// the minimum segment count the collector needs.
func New(cfg Config) (*Store, error) {
	if cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("flash: segment size must be positive, got %d", cfg.SegmentSize)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("flash: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.SegmentSize > maxSegmentSize {
		return nil, fmt.Errorf("flash: segment size must be at most %d, got %d", maxSegmentSize, cfg.SegmentSize)
	}
	if cfg.SpareBlocks < 0 {
		return nil, fmt.Errorf("flash: spare blocks must be non-negative, got %d", cfg.SpareBlocks)
	}
	n := SegmentCount(cfg.Capacity, cfg.SegmentSize)
	spare := int64(cfg.SpareBlocks)
	if spare == 0 {
		spare = int64(n / 8)
		if spare < 1 {
			spare = 1
		}
	}
	dev := cfg.Device
	if dev == nil {
		dev = NewMemDevice(n)
	}
	s := &Store{
		segSize: cfg.SegmentSize,
		dev:     dev,
		spare:   spare,
		segs:    make([]segment, n),
		victims: make([]int64, n),
	}
	for i := range s.victims {
		s.victims[i] = math.MaxInt64
	}
	// Segment 0 opens the host head; the rest are free (NAND ships
	// erased).
	s.reopen(classHost)
	return s, nil
}

// SegmentSize returns the erase-block size.
func (s *Store) SegmentSize() int64 { return s.segSize }

// Capacity returns the store capacity (whole segments).
func (s *Store) Capacity() int64 {
	return int64(len(s.segs)) * s.segSize
}

// Exhausted reports device end-of-life: block retirements have
// consumed the whole spare pool. The store keeps limping along (it
// still serves reads and attempts writes on surviving blocks), but the
// serving layer should stop routing traffic to it (/readyz flips 503).
func (s *Store) Exhausted() bool {
	return s.retired >= s.spare
}

// Write appends one host object, invalidating any previous extent for
// the same key. data may be nil for extent-only callers; when present
// its length must equal size. Oversize (or non-positive) objects are
// rejected with ErrOversize — with no state change beyond invalidating
// the stale extent — and writes the collector cannot place return
// ErrNoSpace.
func (s *Store) Write(key uint64, size int64, data []byte) error {
	if o := s.obsv.Load(); o != nil && o.Sampler.Hit() {
		start := o.Now()
		err := s.write(key, size, data, true)
		o.Program.Record(int64(o.Now().Sub(start)))
		return err
	}
	return s.write(key, size, data, true)
}

// Restore appends one object without charging the host-write counters:
// the rebuild path after a snapshot restore re-materializes residency
// the device already paid for in its previous life, so counting it
// would distort the measured WAF with a phantom write burst. A resident
// at a restart is a survivor, so it goes to the repeat survivors' head,
// not the host head.
func (s *Store) Restore(key uint64, size int64) error {
	return s.write(key, size, nil, false)
}

// write places one object: a host write in the host class, charged to
// hostBytes, or a restored resident in the repeat class, uncharged.
func (s *Store) write(key uint64, size int64, data []byte, host bool) error {
	if data != nil && int64(len(data)) != size {
		return fmt.Errorf("flash: data length %d does not match size %d", len(data), size)
	}
	if i := s.index.Lookup(key); i != slab.Nil {
		s.drop(i)
	}
	if size <= 0 || size > s.segSize {
		s.oversize++
		return ErrOversize
	}
	x := extent{key: key, size: size, data: data, hasData: data != nil, class: classHost, ix: slab.Nil}
	if !host {
		x.class = classRepeat
	}
	ok := s.appendObj(&x, true)
	// A program-fail retirement along the way queued that block's live
	// extents; move them before the caller observes the store.
	s.drainReloc()
	if !ok {
		s.dropped++
		return ErrNoSpace
	}
	if host {
		s.hostBytes += size
	}
	return nil
}

// recBuf returns the store's record buffer sized to n bytes.
func (s *Store) recBuf(n int) []byte {
	if cap(s.rec) < n {
		s.growRec(n)
	}
	return s.rec[:n]
}

// growRec replaces the record buffer with one of n bytes: once per
// store for each new largest record, never in steady state. Kept out of
// line so the allocation stays off the hit path recBuf is inlined into.
//
//go:noinline
func (s *Store) growRec(n int) { s.rec = make([]byte, n) }

// encodeRecord lays out the device record for one extent in the record
// buffer: the 16-byte header plus the payload, if any.
func (s *Store) encodeRecord(key uint64, size int64, data []byte) []byte {
	rec := s.recBuf(recHeaderSize + len(data))
	binary.LittleEndian.PutUint64(rec[0:8], key)
	binary.LittleEndian.PutUint64(rec[8:16], uint64(size))
	copy(rec[recHeaderSize:], data)
	return rec
}

// appendObj lands one extent at its class's head and points the index
// at it, opening a fresh segment as that head when the object does not
// fit (or the head is closed, or retired under it). When no segment can
// be freed, the extent goes to any open head with room instead, so a
// store with few segments does not drop it; so does a relocation that
// would take the last free segment. A failed program retires the
// segment and retries, bounded by the segment count. gc allows the roll
// to run the collector; the collector's own relocations pass false and
// draw on the reserve instead — collection must never reenter itself.
func (s *Store) appendObj(x *extent, gc bool) bool {
	for attempt := 0; attempt <= len(s.segs); attempt++ {
		id := s.heads[x.class]
		if id < 0 || s.segs[id].retired || s.segs[id].used+x.size > s.segSize {
			// A relocation does not take the last free segment while an
			// open head still has room: the write that ran the collector
			// needs that segment, and without it the collector would run
			// again, moving survivors in circles in a tight store.
			if r := s.roomyHead(x.size); !gc && len(s.free) <= 1 && r >= 0 {
				id = r
			} else if next, ok := s.allocSegment(gc); ok {
				// Seal the head by its current id, not the one read above:
				// collection inside allocSegment may have closed it, or
				// rolled a survivor head while relocating.
				if cur := s.heads[x.class]; cur >= 0 {
					s.segs[cur].sealed = true
					s.noteVictim(cur)
				}
				s.heads[x.class], s.segs[next].class = next, x.class
				id = next
			} else if id = s.roomyHead(x.size); id < 0 {
				return false
			}
		}
		head := &s.segs[id]
		// Encoded per attempt: a collection or retirement above read and
		// re-appended other records through the same buffer.
		rec := s.encodeRecord(x.key, x.size, x.data)
		//lint:allow errsink retireSegment charges the retirement counters for this media failure
		if err := s.dev.Program(id, head.phys, rec); err != nil {
			// Bad block: retire it (relocating whatever was already on
			// it) and try again on a fresh head.
			s.retireSegment(id)
			continue
		}
		crc := x.crc
		if crc == 0 {
			crc = crc32.Checksum(rec, castagnoli)
		}
		e := entry{physOff: head.phys, seg: int32(id), slot: int32(len(head.slots)), sz: int32(x.size), crc: crc}
		if x.hasData {
			e.sz = -e.sz
		}
		// A collection survivor moves in its own index slot. Every other
		// caller has dropped the key: write before it appends, retirement
		// as it stashes.
		ix := x.ix
		if ix == slab.Nil {
			ix = s.index.Add(x.key, e)
		} else {
			*s.index.Val(ix) = e
		}
		head.slots = append(head.slots, ix)
		head.used += x.size
		head.phys += int64(len(rec))
		head.live += x.size
		return true
	}
	return false
}

// roomyHead returns an open, unretired head with room for size more
// bytes, or -1: the fallback when no segment can be freed, and where a
// relocation spills rather than take the last free segment. The host
// head is tried first: during the collection a host write runs, its
// leftover tail is about to be sealed unused. (Survivor heads first
// moved more: the decision digest's flash arm read 0.687 device bytes
// per requested byte against 0.661.)
func (s *Store) roomyHead(size int64) int {
	for _, id := range s.heads {
		if id >= 0 && !s.segs[id].retired && s.segs[id].used+size <= s.segSize {
			return id
		}
	}
	return -1
}

// allocSegment returns a free segment id, running the collector when
// the pool is empty (gc false skips collection — the relocation path,
// which lands in the segment its own collection just erased).
func (s *Store) allocSegment(gc bool) (int, bool) {
	// Collect until a segment is free, bounded by the segment count so a
	// store with nothing reclaimable cannot spin. Each round nets the
	// victim's dead bytes; the loop runs more than once only when the
	// victim was nearly full of survivors. Progress is an erase or a
	// retirement — an erase-fail round frees nothing but removes the
	// victim from the candidate set, so the next round tries another.
	for tries := 0; gc && len(s.free) == 0 && tries < len(s.segs); tries++ {
		before := s.erases + s.retired
		s.collect()
		if s.erases+s.retired == before {
			break // no victim; fall through to the failure path
		}
	}
	if len(s.free) == 0 {
		return 0, false
	}
	id := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	seg := &s.segs[id]
	seg.sealed = false
	seg.slots = seg.slots[:0]
	seg.used, seg.live, seg.phys = 0, 0, 0
	s.noteVictim(id)
	return id, true
}

// collect runs one greedy collection pass, timing it into the GC
// histogram when an observer is attached.
func (s *Store) collect() {
	o := s.obsv.Load()
	if o == nil {
		s.collectPass()
		return
	}
	start := o.Now()
	s.collectPass()
	o.GC.Record(int64(o.Now().Sub(start)))
}

// collectPass is the collection pass itself: pick the sealed segment
// with the fewest live bytes (or a stalled head, see below), stash the
// survivors, erase the block, and re-append the survivors to the head
// of the class the victim implies (survivorClass) — which may open on
// the block just erased, so collection makes forward progress with zero
// standing free segments. A survivor keeps its index slot across the
// move: the relocation is an update of where the index says the key
// lives.
func (s *Store) collectPass() {
	// The first minimum, as a walk of the segments would find it: ties go
	// to the lowest id.
	victim, victimLive := -1, int64(math.MaxInt64)
	for id, live := range s.victims {
		if live < victimLive {
			victim, victimLive = id, live
		}
	}
	// Open heads are still filling, so the greedy choice skips them. But
	// a head that stops receiving records (a survivor class no victim
	// feeds, or a host head whose records died before it filled) would
	// hold its dead bytes out of reach for as long as it stays open, and
	// a small store would then collect segments with nothing dead in
	// them. So a head with more dead bytes than the greedy victim is
	// closed and collected instead.
	closed := -1
	for c, id := range s.heads {
		if id < 0 || s.segs[id].retired {
			continue
		}
		h := &s.segs[id]
		if dead := h.used - h.live; dead > 0 && (victim == -1 || dead > s.segs[victim].used-victimLive) {
			victim, victimLive, closed = id, h.live, c
		}
	}
	if closed >= 0 {
		s.segs[victim].sealed = true
		s.heads[closed] = -1
		s.noteVictim(victim)
	}
	if victim == -1 {
		return
	}
	seg := &s.segs[victim]
	class := survivorClass(seg.class)
	// The survivors are listed first: their node reads are independent
	// loads, so one short loop overlaps their cache misses instead of
	// waiting out each one ahead of a record read. Each one's entry is
	// marked in flight (seg -1), so it names no record of the victim and
	// a retirement of it (a failed erase) cannot stash it a second time.
	s.stash = s.stash[:0]
	for slot, ix := range seg.slots {
		if e := s.index.Val(ix); e.names(victim, slot) {
			seg.live -= e.size()
			e.seg = -1
			s.stash = append(s.stash, ix)
		}
	}
	clear(s.keep)
	s.keep, s.keepData = s.keep[:0], s.keepData[:0]
	for _, ix := range s.stash {
		e := s.index.Val(ix)
		// Read the record back through the device and verify it before
		// relocating: a survivor that cannot be read, or whose checksum
		// fails, is dropped here instead of being copied forward as
		// corruption. readRecord charges the error counters.
		rec, err := s.readRecord(victim, e)
		if err != nil {
			s.index.Del(ix)
			continue
		}
		// The survivor keeps its index slot, in flight, until the
		// re-append below writes its new place into it.
		s.keep = append(s.keep, extent{key: s.index.Key(ix), size: e.size(), hasData: e.hasData(), class: class, crc: e.crc, ix: ix})
		if e.hasData() {
			n := len(s.keepData)
			s.keepData = append(s.keepData, rec[recHeaderSize:]...)
			s.keep[len(s.keep)-1].data = s.keepData[n:]
		}
	}
	s.noteVictim(victim)
	// A failed erase retires the victim instead of freeing it; either
	// way its survivors are stashed in keep and still need placing.
	s.eraseSegment(victim)
	for i := range s.keep {
		st := &s.keep[i]
		// Relocation rides the same append path as host writes — that is
		// the amplification — but lands in a survivor head and in
		// gcBytes, not hostBytes, and must not reenter the collector (the
		// erased victim is free for it to roll onto).
		if s.appendObj(st, false) {
			s.gcBytes += st.size
			s.relocations++
		} else {
			// No room anywhere: the object is lost from flash (the cache
			// above re-fetches on demand). Sized stores never hit this.
			s.index.Del(st.ix)
			s.dropped++
		}
	}
}

// readRecord fetches and verifies the record of e, on segment id, from
// the device, charging the read-error and corruption counters on
// failure. The returned bytes are the store's record buffer: the caller
// copies out what it keeps before the next record is read or encoded.
func (s *Store) readRecord(id int, e *entry) ([]byte, error) {
	rec := s.recBuf(e.physLen())
	if err := s.dev.Read(id, e.physOff, rec); err != nil {
		s.readErrors++
		return nil, fmt.Errorf("%w: %v", ErrUncorrectable, err)
	}
	if crc32.Checksum(rec, castagnoli) != e.crc {
		s.corruptExtents++
		return nil, ErrCorrupt
	}
	return rec, nil
}

// retireSegment permanently removes a bad block from service: it never
// rejoins the free pool, its live extents are queued for relocation,
// and the spare pool shrinks by one.
func (s *Store) retireSegment(id int) {
	seg := &s.segs[id]
	if seg.retired {
		return
	}
	seg.retired = true
	seg.sealed = true
	s.retired++
	s.noteVictim(id)
	class := survivorClass(seg.class)
	for i, f := range s.free {
		if f == id {
			s.free = append(s.free[:i], s.free[i+1:]...)
			break
		}
	}
	for slot, ix := range seg.slots {
		e := *s.index.Val(ix)
		if !e.names(id, slot) {
			continue
		}
		key := s.index.Key(ix)
		s.drop(ix)
		rec, err := s.readRecord(id, &e)
		if err != nil {
			// Unreadable or corrupt on the way out: the extent is lost.
			s.dropped++
			continue
		}
		// The key left the index above; the append adds it back.
		st := extent{key: key, size: e.size(), hasData: e.hasData(), class: class, crc: e.crc, ix: slab.Nil}
		if e.hasData() {
			st.data = append([]byte(nil), rec[recHeaderSize:]...)
		}
		s.relocq = append(s.relocq, st)
	}
}

// drainReloc places extents queued by block retirements. Placement can
// itself hit a bad block and queue more, so the length is read again
// each round; the drained queue keeps its array and drops its payloads.
func (s *Store) drainReloc() {
	for i := 0; i < len(s.relocq); i++ {
		// A copy: the append can queue more retirements, growing relocq.
		st := s.relocq[i]
		if s.appendObj(&st, true) {
			s.gcBytes += st.size
			s.relocations++
		} else {
			s.dropped++
		}
	}
	clear(s.relocq)
	s.relocq = s.relocq[:0]
}

// eraseSegment wipes one block and returns it to the free pool,
// charging the erase counters. A failed erase retires the block
// instead.
func (s *Store) eraseSegment(id int) {
	seg := &s.segs[id]
	//lint:allow errsink retireSegment charges the retirement counters for this media failure
	if err := s.dev.Erase(id); err != nil {
		s.retireSegment(id)
		return
	}
	seg.slots = seg.slots[:0]
	seg.used, seg.live, seg.phys = 0, 0, 0
	seg.sealed = false
	s.noteVictim(id)
	seg.erases++
	s.erases++
	s.free = append(s.free, id)
}

// noteVictim refreshes segment id's entry in the victim array.
func (s *Store) noteVictim(id int) {
	if seg := &s.segs[id]; seg.sealed && !seg.retired {
		s.victims[id] = seg.live
	} else {
		s.victims[id] = math.MaxInt64
	}
}

// drop removes the extent in index slot i from the index and its
// segment's live bytes. A freed node keeps its last entry, so its seg
// is cleared first: the record's list entry then reads dead.
func (s *Store) drop(i int32) {
	e := s.index.Val(i)
	s.segs[e.seg].live -= e.size()
	s.noteVictim(int(e.seg))
	e.seg = -1
	s.index.Del(i)
}

// Invalidate drops key's extent: the policy's eviction callback on a
// store wired by engine.AttachFlash, or overwrite-by-delete. It calls
// nothing outside the store, so it is safe under a policy lock. It
// reports whether the key was present.
func (s *Store) Invalidate(key uint64) bool {
	i := s.index.Lookup(key)
	if i == slab.Nil {
		return false
	}
	s.drop(i)
	return true
}

// Contains reports whether key has a live extent.
func (s *Store) Contains(key uint64) bool {
	return s.index.Lookup(key) != slab.Nil
}

// ReadExtent returns key's payload bytes (a copy; nil for extents
// written without payloads) and its logical size, verifying the
// stored record against the device on the way. It returns ErrNotFound
// for absent keys; ErrUncorrectable or ErrCorrupt report a media
// failure, after which the extent is dropped — the caller sees a miss
// on retry, never corrupt bytes.
func (s *Store) ReadExtent(key uint64) (data []byte, size int64, err error) {
	if o := s.obsv.Load(); o != nil && o.Sampler.Hit() {
		start := o.Now()
		data, size, err = s.readExtent(key)
		o.Read.Record(int64(o.Now().Sub(start)))
		return data, size, err
	}
	return s.readExtent(key)
}

// readExtent is ReadExtent without the timing wrapper.
func (s *Store) readExtent(key uint64) (data []byte, size int64, err error) {
	i := s.index.Lookup(key)
	if i == slab.Nil {
		return nil, 0, ErrNotFound
	}
	e := s.index.Val(i)
	rec, err := s.readRecord(int(e.seg), e)
	if err != nil {
		s.drop(i)
		return nil, 0, err
	}
	if e.hasData() {
		data = append([]byte(nil), rec[recHeaderSize:]...)
	}
	return data, e.size(), nil
}

// ScrubSegment verifies every live extent in one segment against the
// device, dropping (via the same invalidation path as Invalidate) any
// whose record fails to read or checksum. It returns the extents
// scanned and dropped. Free, retired, and out-of-range segments scan
// zero extents.
func (s *Store) ScrubSegment(id int) (scanned, dropped int) {
	if id < 0 || id >= len(s.segs) {
		return 0, 0
	}
	seg := &s.segs[id]
	if seg.retired {
		return 0, 0
	}
	for slot, ix := range seg.slots {
		e := s.index.Val(ix)
		if !e.names(id, slot) {
			continue
		}
		scanned++
		if _, err := s.readRecord(id, e); err != nil {
			s.drop(ix)
			dropped++
		}
	}
	s.scrubbed++
	return scanned, dropped
}

// ScrubStep advances the background scrub by one segment: it walks the
// segment ring from where the last step left off, scrubs the first
// sealed, non-retired segment it finds (never an open head), and
// returns that segment's id with the scan counts. It returns segment -1 when no
// segment is currently scrubbable (nothing sealed yet). One ScrubStep
// per scrub interval keeps the pass gentle; len(segs) steps cover the
// whole device.
func (s *Store) ScrubStep() (segment, scanned, dropped int) {
	for i := 0; i < len(s.segs); i++ {
		id := (s.scrubAt + i) % len(s.segs)
		seg := &s.segs[id]
		if !seg.sealed || seg.retired {
			continue
		}
		s.scrubAt = (id + 1) % len(s.segs)
		scanned, dropped = s.ScrubSegment(id)
		return id, scanned, dropped
	}
	return -1, 0, 0
}

// Len returns the number of live extents in the index.
func (s *Store) Len() int {
	return s.index.Len()
}

// Reset wipes all segments and the index without charging erase
// counters: it models the empty device a restarted daemon boots with
// (payloads are not persisted), so the subsequent Restore rebuild
// starts from clean blocks. Cumulative wear counters are preserved,
// and so are retired blocks — bad NAND stays bad across a process
// restart. Every head is closed and the repeat survivors' head
// reopened, since the Restore rebuild that follows lands there.
func (s *Store) Reset() {
	s.index = slab.Arena[entry]{}
	s.relocq = nil
	for i := range s.segs {
		seg := &s.segs[i]
		seg.slots = seg.slots[:0]
		seg.used, seg.live, seg.phys = 0, 0, 0
		if !seg.retired {
			seg.sealed = false
		}
		s.victims[i] = math.MaxInt64
	}
	s.reopen(classRepeat)
}

// reopen closes every head, returns every unretired segment to the free
// pool, and opens class's head on the lowest-numbered one. With every
// block retired nothing opens and every write fails, which is the truth
// about that device.
func (s *Store) reopen(class uint8) {
	for c := range s.heads {
		s.heads[c] = -1
	}
	s.free = s.free[:0]
	for i := len(s.segs) - 1; i >= 0; i-- {
		if !s.segs[i].retired {
			s.free = append(s.free, i)
		}
	}
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.heads[class], s.segs[id].class = id, class
	}
}

// Stats returns the current wear counters.
func (s *Store) Stats() Stats {
	st := Stats{
		SegmentSize:      s.segSize,
		Segments:         len(s.segs),
		FreeSegments:     len(s.free),
		HostBytes:        s.hostBytes,
		GCBytes:          s.gcBytes,
		Erases:           s.erases,
		Relocations:      s.relocations,
		Oversize:         s.oversize,
		Dropped:          s.dropped,
		ReadErrors:       s.readErrors,
		CorruptExtents:   s.corruptExtents,
		RetiredBlocks:    s.retired,
		SpareBlocks:      s.spare,
		ScrubbedSegments: s.scrubbed,
		Exhausted:        s.retired >= s.spare,
	}
	st.SpareHeadroom = st.SpareBlocks - st.RetiredBlocks
	if st.SpareHeadroom < 0 {
		st.SpareHeadroom = 0
	}
	for i := range s.segs {
		seg := &s.segs[i]
		st.LiveBytes += seg.live
		if i == 0 || seg.erases < st.MinSegmentErases {
			st.MinSegmentErases = seg.erases
		}
		if seg.erases > st.MaxSegmentErases {
			st.MaxSegmentErases = seg.erases
		}
	}
	return st
}

// ErasesPerSegment returns each block's erase count, in segment order
// — the wear-leveling histogram.
func (s *Store) ErasesPerSegment() []int64 {
	out := make([]int64, len(s.segs))
	for i := range s.segs {
		out[i] = s.segs[i].erases
	}
	return out
}
