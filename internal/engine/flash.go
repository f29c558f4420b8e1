package engine

import (
	"fmt"

	"otacache/internal/cache"
	"otacache/internal/flash"
)

// SetFlash attaches a flash store under this engine's policy (nil
// detaches). Admitted writes land in the store from then on; Snapshot
// mirrors its wear counters into the Flash* metrics.
func (e *Engine) SetFlash(s *flash.Store) { e.flash.Store(s) }

// Flash returns the attached flash store, or nil.
func (e *Engine) Flash() *flash.Store { return e.flash.Load() }

// AttachFlash builds and attaches one flash store per shard of srv.
// Each store is sized at the shard policy's capacity times
// overprovision (> 1; the slack is the collector's working room — real
// devices ship 7–28% [1.07–1.28]).
//
// How a store learns that the policy evicted an object depends on the
// shard policy, and on nothing else:
//
//   - A policy that is a cache.EvictNotifier (the six policies and
//     cache.Sharded over them) gets store.Invalidate as its eviction
//     callback, and the store is built with no liveness oracle: live
//     counts are exact and a collection pass calls nothing outside the
//     store. The callback runs under the policy's stripe lock, so the
//     nesting is policy → flash and the store never calls the policy.
//   - Any other policy (a wrapper that hides the interface, such as
//     faults.Policy) is polled instead: the store gets policy.Contains
//     as its Live oracle and probes it for every sealed extent at each
//     collection. That nesting is flash → policy, and nothing enters
//     the store from under a policy lock.
//
// The two orders would deadlock against each other; a store has exactly
// one of them for its whole life (flash.Store.Lazy says which). In both
// the engine calls flash.Write only after the policy's Admit has
// returned, holding no lock.
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
	if opts.Overprovision <= 1 {
		return fmt.Errorf("engine: flash overprovision must exceed 1 (got %g); the collector needs slack beyond the policy's capacity", opts.Overprovision)
	}
	if opts.SegmentSize <= 0 {
		return fmt.Errorf("engine: flash segment size must be positive (got %d)", opts.SegmentSize)
	}
	if opts.SpareBlocks < 0 {
		return fmt.Errorf("engine: flash spare blocks must not be negative (got %d)", opts.SpareBlocks)
	}
	for i, sh := range srv.Shards() {
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
		// Uninstalling first asks the policy whether it reports evictions
		// at all, and stops a store attached earlier from hearing them.
		notifier, _ := pol.(cache.EvictNotifier)
		notified := notifier != nil && notifier.SetEvictNotify(nil)
		live := pol.Contains
		if notified {
			live = nil
		}
		st, err := flash.New(flash.Config{
			SegmentSize: opts.SegmentSize,
			Capacity:    capacity,
			Live:        live,
			Device:      dev,
			SpareBlocks: spare,
		})
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
		if notified {
			notifier.SetEvictNotify(func(key uint64) { st.Invalidate(key) })
		}
		sh.SetFlash(st)
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
// path is drained); residency is buffered outside the policy lock
// because Range holds it and, on a lazy store, a Restore-triggered
// collection consults policy.Contains. With no traffic there are no
// evictions either, so the rebuild is the same for both kinds of store.
func RebuildFlash(srv Server) {
	for _, sh := range srv.Shards() {
		fs := sh.Flash()
		if fs == nil {
			continue
		}
		r, ok := sh.Policy().(cache.Ranger)
		if !ok {
			continue
		}
		type resident struct {
			key  uint64
			size int64
		}
		var residents []resident
		r.Range(func(key uint64, size int64) bool {
			residents = append(residents, resident{key, size})
			return true
		})
		fs.Reset()
		for _, res := range residents {
			//lint:allow errsink rebuild is best-effort; an unrestorable resident stays unmaterialized and reads as a miss
			fs.Restore(res.key, res.size)
		}
	}
}
