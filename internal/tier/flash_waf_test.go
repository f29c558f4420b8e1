package tier

import (
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/labeling"
	"otacache/internal/trace"
)

// replayOnFlash replays the whole trace through one LRU engine with the
// given admission filter (nil = admit-all) and a flash device attached.
// Both comparison arms get identical devices — same segment size, same
// overprovision over the same policy capacity — and an identical
// request stream, so any wear difference is attributable to admission
// alone.
func replayOnFlash(t *testing.T, filter core.Filter, capacity int64) engine.Metrics {
	t.Helper()
	tr := testTrace(t)
	eng, err := engine.New(cache.NewLRU(capacity), filter)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AttachFlash(eng, 2<<20, 1.15); err != nil {
		t.Fatal(err)
	}
	return replay(tr, eng)
}

// strictClassifier trains a CART on the trace under a deliberately
// strict one-time criterion (M = 2000 requests) and wraps it in the
// classification system. Strict criteria are the device-protective
// operating point: the classifier admits only objects it predicts will
// re-access soon, so the flash device's occupancy stays low and its
// collector finds mostly-dead victims. (The auto-solved M from
// labeling.Solve optimizes hit rate, not wear; an operator trading a
// little hit rate for lifetime dials M down — §4.2's knob.)
func strictClassifier(t *testing.T, capacity int64) core.Filter {
	t.Helper()
	tr := testTrace(t)
	next := trace.BuildNextAccess(tr)
	crit := labeling.Criteria{
		M:            2000,
		HitRate:      0.5,
		OneTimeP:     0.3,
		CacheBytes:   capacity,
		MeanObjBytes: tr.MeanPhotoSize(),
	}
	clf, err := Bootstrap(tr, labeling.Labels(next, crit), Spec{CacheBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	adm, err := core.NewClassifierAdmission(clf, core.NewHistoryTable(core.TableCapacity(crit)), crit)
	if err != nil {
		t.Fatal(err)
	}
	return adm
}

// TestClassifierAdmissionLowersDeviceWAF is the paper's claim carried
// all the way down to the device layer: on the same trace, cache size,
// and flash geometry, classifier admission produces strictly lower
// MEASURED write amplification and strictly fewer erase cycles than
// admitting every miss — lifetime gained twice, once by writing less
// and once by amplifying less of what is written.
//
// The mechanism is occupancy: admit-all floods the device with
// one-time objects, keeps it at full utilization, and forces the
// collector to relocate live survivors out of every victim; the strict
// classifier's admitted set stays near the device's knee, so victims
// are mostly dead by the time they are collected.
func TestClassifierAdmissionLowersDeviceWAF(t *testing.T) {
	tr := testTrace(t)
	capacity := int64(0.12 * float64(tr.TotalBytes()))

	plain := replayOnFlash(t, nil, capacity)
	clf := replayOnFlash(t, strictClassifier(t, capacity), capacity)

	// The comparison is meaningful only if the replay is deterministic:
	// an identical re-run must reproduce the wear counters bit for bit.
	if again := replayOnFlash(t, strictClassifier(t, capacity), capacity); again != clf {
		t.Fatalf("classifier replay diverged:\n first: %+v\nsecond: %+v", clf, again)
	}

	// Neither arm may be degenerate: both devices must actually wrap
	// (erases observed) for the WAF comparison to measure collection.
	if plain.FlashHostBytes == 0 || plain.FlashErases == 0 {
		t.Fatalf("admit-all produced no device wear (host=%d erases=%d)",
			plain.FlashHostBytes, plain.FlashErases)
	}
	if clf.FlashErases == 0 {
		t.Fatalf("classifier device never wrapped (host=%d); the WAF floor is untested",
			clf.FlashHostBytes)
	}
	if clf.Bypassed == 0 {
		t.Fatal("classifier never bypassed; both arms ran admit-all")
	}

	if clf.FlashHostBytes >= plain.FlashHostBytes {
		t.Fatalf("classifier host writes %d >= admit-all %d; admission filtering must cut device writes",
			clf.FlashHostBytes, plain.FlashHostBytes)
	}
	if clf.FlashWAF() >= plain.FlashWAF() {
		t.Fatalf("classifier WAF %.4f >= admit-all WAF %.4f; filtered admission must amplify less",
			clf.FlashWAF(), plain.FlashWAF())
	}
	if clf.FlashErases >= plain.FlashErases {
		t.Fatalf("classifier erases %d >= admit-all erases %d", clf.FlashErases, plain.FlashErases)
	}

	// Lifetime arithmetic over the measured WAFs: fewer host bytes and
	// a lower WAF compound, so the classifier drains strictly less of
	// the same device's P/E budget over the same request stream.
	plainDrain := float64(plain.FlashHostBytes) * plain.FlashWAF()
	clfDrain := float64(clf.FlashHostBytes) * clf.FlashWAF()
	if clfDrain >= plainDrain {
		t.Fatalf("classifier drained %.0f cell bytes >= admit-all %.0f", clfDrain, plainDrain)
	}
}
