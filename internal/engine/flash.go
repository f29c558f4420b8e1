package engine

import (
	"fmt"
	"math"

	"otacache/internal/cache"
	"otacache/internal/flash"
)

// SetFlash attaches a flash store under this engine's policy (nil
// detaches), under the engine's lock. Admitted writes land in the store
// from then on; Snapshot mirrors its wear counters into the Flash*
// metrics. It does not install the store as the policy's eviction
// callback; AttachFlash does. Attach before serving: from then on each
// request runs under the engine's lock and drives the policy's
// unlocked view, while a request already in flight still takes the
// stripe locks, which no longer exclude the new ones.
func (e *Engine) SetFlash(s *flash.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flash.Store(s)
}

// Flash returns the attached flash store, or nil.
func (e *Engine) Flash() *flash.Store { return e.flash.Load() }

// AttachFlash builds and attaches one flash store per shard of srv.
// Each store is sized at the shard policy's capacity times
// overprovision (> 1; the slack is the collector's working room — real
// devices ship 7–28% [1.07–1.28]).
//
// Each store is installed as its shard policy's eviction callback
// (cache.Policy's SetEvictNotify), replacing any store attached
// earlier, so its live counts are exact and a collection pass calls
// nothing outside the store; the store never calls the policy. Each
// shard swaps its store and callback under its engine lock, the one
// lock a flash shard takes: it serves one request at a time under it,
// so the engine's flash.Write after an Admit cannot race another
// admission's eviction. Attach before serving, as with SetFlash.
func AttachFlash(srv Server, segmentSize int64, overprovision float64) error {
	return AttachFlashOpts(srv, FlashOptions{SegmentSize: segmentSize, Overprovision: overprovision})
}

// FlashOptions parameterizes AttachFlashOpts beyond the geometry:
// the fault-domain knobs the daemon exposes as flags.
type FlashOptions struct {
	// SegmentSize is the erase-block size in bytes.
	SegmentSize int64
	// Overprovision scales each shard policy's capacity to the device
	// capacity (must exceed 1; the slack is the collector's working room).
	Overprovision float64
	// SpareBlocks is each shard store's bad-block retirement budget.
	// Zero derives it from the overprovision slack: the segments beyond
	// what the policy's capacity strictly needs, floored at one — the
	// device can lose exactly its slack to media failure before the
	// geometry no longer fits the policy and /readyz reports EOL.
	SpareBlocks int
	// Device, when set, supplies each shard's flash device (shard index
	// and the store's segment count, flash.SegmentCount); nil means a
	// plain in-memory device. The daemon's fault drill injects media
	// faults here.
	Device func(shard, segments int) flash.Device
}

// AttachFlashOpts is AttachFlash with the fault-domain knobs exposed.
func AttachFlashOpts(srv Server, opts FlashOptions) error {
	if srv == nil {
		return fmt.Errorf("engine: AttachFlash on nil server")
	}
	if !(opts.Overprovision > 1) || math.IsInf(opts.Overprovision, 1) {
		return fmt.Errorf("engine: flash overprovision must exceed 1 and be finite (got %g); the collector needs slack beyond the policy's capacity", opts.Overprovision)
	}
	if opts.SegmentSize <= 0 {
		return fmt.Errorf("engine: flash segment size must be positive (got %d)", opts.SegmentSize)
	}
	if opts.SpareBlocks < 0 {
		return fmt.Errorf("engine: flash spare blocks must not be negative (got %d)", opts.SpareBlocks)
	}
	// Every store is built before any shard changes, so an error leaves
	// each shard with the store and callback it had.
	shards := srv.Shards()
	stores := make([]*flash.Store, len(shards))
	for i, sh := range shards {
		pol := sh.Policy()
		capacity := int64(float64(pol.Cap()) * opts.Overprovision)
		segments := flash.SegmentCount(capacity, opts.SegmentSize)
		spare := opts.SpareBlocks
		if spare == 0 {
			// The overprovision slack in whole segments: what the device
			// can retire before the policy's bytes no longer fit.
			need := (pol.Cap() + opts.SegmentSize - 1) / opts.SegmentSize
			spare = segments - int(need)
			if spare < 1 {
				spare = 1
			}
		}
		var dev flash.Device
		if opts.Device != nil {
			dev = opts.Device(i, segments)
		}
		st, err := flash.New(flash.Config{
			SegmentSize: opts.SegmentSize,
			Capacity:    capacity,
			Device:      dev,
			SpareBlocks: spare,
		})
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
		stores[i] = st
	}
	for i, sh := range shards {
		st := stores[i]
		sh.mu.Lock()
		sh.policy.SetEvictNotify(func(key uint64) { st.Invalidate(key) })
		sh.flash.Store(st)
		sh.mu.Unlock()
	}
	return nil
}

// RebuildFlash re-materializes every shard's flash store from its
// policy's current resident set: the restart path. The device a
// restarted daemon boots with is empty (payload extents are not
// persisted), so each store is Reset and the restored residency is
// re-appended via Restore — uncharged writes, because the device paid
// for them in its previous life and counting them again would pollute
// the measured WAF with a restore burst. Shards without a store or
// whose policy cannot enumerate residents are skipped.
//
// The caller must not run traffic concurrently (the snapshot restore
// path is drained), so no eviction callback fires during the rebuild.
// The reset and each stripe's walk run under the shard lock, so a
// running scrubber steps between them.
func RebuildFlash(srv Server) {
	for _, sh := range srv.Shards() {
		fs := sh.Flash()
		if fs == nil {
			continue
		}
		if _, ok := cache.AsRanger(sh.Policy()); !ok {
			continue
		}
		sh.WithFlash(func(cache.Policy, *flash.Store) { fs.Reset() })
		sh.RangeResidents(func(key uint64, size int64) bool {
			//lint:allow errsink rebuild is best-effort; an unrestorable resident stays unmaterialized and reads as a miss
			fs.Restore(key, size)
			return true
		})
	}
}
