package cache

import "testing"

func TestLIRSBasic(t *testing.T) {
	c := NewLIRS(100, 0.9)
	c.Admit(1, 10, 0)
	if !c.Get(1, 0) {
		t.Fatal("admitted object not resident")
	}
	if c.Get(2, 0) {
		t.Fatal("phantom hit")
	}
	if c.Name() != "lirs" {
		t.Fatal("name")
	}
}

func TestLIRSColdFillIsLIR(t *testing.T) {
	c := NewLIRS(100, 0.9)
	for k := uint64(0); k < 9; k++ {
		c.Admit(k, 10, 0)
	}
	if c.LIRBytes() != 90 {
		t.Fatalf("LIR bytes = %d, want 90 (cold fill)", c.LIRBytes())
	}
	// The next insert exceeds the LIR budget and becomes resident HIR.
	c.Admit(9, 10, 0)
	if c.HIRBytes() != 10 {
		t.Fatalf("HIR bytes = %d, want 10", c.HIRBytes())
	}
}

func TestLIRSEvictsHIRNotLIR(t *testing.T) {
	c := NewLIRS(100, 0.9)
	for k := uint64(0); k < 10; k++ {
		c.Admit(k, 10, 0)
	}
	// 0..8 are LIR, 9 is resident HIR. A new one-time insert must evict
	// the HIR object 9, leaving the LIR set untouched.
	c.Admit(100, 10, 0)
	if c.Contains(9) {
		t.Fatal("resident HIR should be the eviction victim")
	}
	for k := uint64(0); k < 9; k++ {
		if !c.Contains(k) {
			t.Fatalf("LIR object %d evicted", k)
		}
	}
}

func TestLIRSGhostPromotion(t *testing.T) {
	c := NewLIRS(100, 0.9)
	for k := uint64(0); k < 10; k++ {
		c.Admit(k, 10, 0)
	}
	// Evict 9 (HIR) to ghost state, then re-admit: its IRR beat the
	// stack, so it must come back as LIR.
	c.Admit(100, 10, 0) // evicts 9, which stays in the stack as a ghost
	if c.Contains(9) {
		t.Fatal("9 should be non-resident")
	}
	c.Admit(9, 10, 0)
	if !c.Contains(9) {
		t.Fatal("re-admitted ghost not resident")
	}
	if x := c.a.live()[9]; x.seg != stateLIR {
		t.Fatalf("re-admitted ghost state = %d, want LIR", x.seg)
	}
}

func TestLIRSScanResistance(t *testing.T) {
	run := func(p Policy) (hits int) {
		tick := 0
		access := func(k uint64) {
			if p.Get(k, tick) {
				hits++
			} else {
				p.Admit(k, 10, tick)
			}
			tick++
		}
		for round := 0; round < 30; round++ {
			for w := 0; w < 15; w++ {
				access(uint64(w))
			}
			for s := 0; s < 300; s++ {
				access(uint64(1000 + round*300 + s))
			}
		}
		return
	}
	lirsHits := run(NewLIRS(300, 0.9))
	lruHits := run(NewLRU(300))
	if lirsHits <= lruHits {
		t.Fatalf("LIRS (%d hits) should beat LRU (%d hits) under scans", lirsHits, lruHits)
	}
}

func TestLIRSInvariantsUnderChurn(t *testing.T) {
	c := NewLIRS(200, 0.9)
	for i := 0; i < 20000; i++ {
		k := uint64((i * 7) % 131)
		if i%3 == 0 {
			k = uint64(i) // inject one-time accesses
		}
		if !c.Get(k, i) {
			c.Admit(k, int64(4+i%24), i)
		}
		if c.Used() > c.Cap() {
			t.Fatalf("step %d: used %d > cap", i, c.Used())
		}
		if !c.StackBottomIsLIR() {
			t.Fatalf("step %d: stack bottom not LIR", i)
		}
		if c.GhostBytes() > c.Cap() {
			t.Fatalf("step %d: ghost bytes %d > cap", i, c.GhostBytes())
		}
	}
	// Accounting cross-check.
	var lir, hir int64
	for _, x := range c.a.live() {
		switch x.seg {
		case stateLIR:
			lir += x.size
		case stateHIRResident:
			hir += x.size
		}
	}
	if lir != c.LIRBytes() || hir != c.HIRBytes() {
		t.Fatalf("accounting drift: lir %d/%d hir %d/%d", lir, c.LIRBytes(), hir, c.HIRBytes())
	}
}

func TestLIRSLIRRatio(t *testing.T) {
	c := NewLIRS(1000, 0.9)
	if r := c.LIRRatio(); r < 0.89 || r > 0.91 {
		t.Fatalf("LIRRatio = %v", r)
	}
	// Invalid ratios fall back to the default.
	c2 := NewLIRS(1000, 0)
	if r := c2.LIRRatio(); r < 0.89 || r > 0.91 {
		t.Fatalf("fallback LIRRatio = %v", r)
	}
}

func TestLIRSOversizedAndDoubleAdmit(t *testing.T) {
	c := NewLIRS(50, 0.9)
	c.Admit(1, 51, 0)
	if c.Len() != 0 {
		t.Fatal("oversized admitted")
	}
	c.Admit(1, 20, 0)
	c.Admit(1, 20, 0)
	if c.Len() != 1 || c.Used() != 20 {
		t.Fatalf("double admit: len=%d used=%d", c.Len(), c.Used())
	}
}

// TestLIRSReadmitPrunedGhost covers an Admit of a ghost key whose
// makeRoom demotes the stack-bottom LIR object and prunes the ghost with
// it: the key must then enter as a new object, not as a node that is in
// the stack but not indexed. Small capacities against 1–31 byte objects
// make that happen often; every resident Range visits must be one
// Contains reports, and the counts and bytes must agree.
func TestLIRSReadmitPrunedGhost(t *testing.T) {
	for _, capacity := range []int64{8, 40} {
		keys, sizes, _ := digestStream(capacity, 5000)
		c := NewLIRS(capacity, DefaultLIRRatio)
		for i, k := range keys {
			if !c.Get(k, i) {
				c.Admit(k, sizes[i], i)
			}
			n, used := 0, int64(0)
			c.Range(func(key uint64, size int64) bool {
				if !c.Contains(key) {
					t.Fatalf("cap %d step %d: Range visits %d, which is not resident", capacity, i, key)
				}
				n++
				used += size
				return true
			})
			if n != c.Len() || used != c.Used() {
				t.Fatalf("cap %d step %d: Range saw %d objects/%d bytes, Len %d Used %d",
					capacity, i, n, used, c.Len(), c.Used())
			}
			var ghosts int64
			for _, x := range c.a.live() {
				if x.seg == stateHIRNonResident {
					ghosts += x.size
				}
			}
			if ghosts != c.GhostBytes() {
				t.Fatalf("cap %d step %d: ghosts hold %d bytes, GhostBytes %d", capacity, i, ghosts, c.GhostBytes())
			}
		}
	}
}
