package cache

import "testing"

func TestARCBasicHitMiss(t *testing.T) {
	c := NewARC(100)
	c.Admit(1, 10, 0)
	if !c.Get(1, 0) {
		t.Fatal("admitted object not resident")
	}
	if c.Get(2, 0) {
		t.Fatal("phantom hit")
	}
}

func TestARCHitMovesToT2(t *testing.T) {
	c := NewARC(100)
	c.Admit(1, 10, 0)
	if c.t2.N != 0 || c.t1.N != 1 {
		t.Fatal("new object must start in T1")
	}
	c.Get(1, 0)
	if c.t2.N != 1 || c.t1.N != 0 {
		t.Fatal("hit must move object to T2")
	}
}

func TestARCGhostHitAdaptsTarget(t *testing.T) {
	c := NewARC(40)
	// Build some T2 content first: B1 only forms via REPLACE, which
	// needs T1 to coexist with other content (a pure cold scan never
	// ghosts, matching the original Case IV-A else-branch).
	c.Admit(100, 10, 0)
	c.Get(100, 0) // -> T2
	for k := uint64(0); k < 8; k++ {
		c.Admit(k, 10, 0)
	}
	b1, _ := c.GhostBytes()
	if b1 == 0 {
		t.Fatal("expected B1 ghosts after T1 churn")
	}
	p0 := c.Target()
	// Re-admit a B1-ghosted key: a B1 hit grows p.
	var ghostKey uint64
	found := false
	for k, e := range c.a.live() {
		if e.seg == arcB1 {
			ghostKey, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no B1 entry despite nonzero B1 bytes")
	}
	c.Admit(ghostKey, 10, 0)
	if c.Target() <= p0 {
		t.Fatalf("B1 ghost hit must grow target: %d -> %d", p0, c.Target())
	}
	if !c.Contains(ghostKey) {
		t.Fatal("ghost-hit object not resident after admit")
	}
	// It must have been inserted into T2 (seen twice).
	if c.a.live()[ghostKey].seg != arcT2 {
		t.Fatal("ghost-hit object must enter T2")
	}
}

func TestARCB2GhostHitShrinksTarget(t *testing.T) {
	c := NewARC(40)
	// Create T2 content, then churn to push T2 victims into B2.
	for k := uint64(0); k < 4; k++ {
		c.Admit(k, 10, 0)
		c.Get(k, 0) // move to T2
	}
	// Grow p so that REPLACE prefers evicting from T1... first push a B1
	// ghost hit to raise p, then flood.
	for k := uint64(10); k < 30; k++ {
		c.Admit(k, 10, 0)
	}
	_, b2 := c.GhostBytes()
	if b2 == 0 {
		t.Skip("workload did not produce B2 ghosts; covered by churn test")
	}
	p0 := c.Target()
	var ghostKey uint64
	found := false
	for k, e := range c.a.live() {
		if e.seg == arcB2 {
			ghostKey, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("B2 bytes nonzero but no B2 entry")
	}
	c.Admit(ghostKey, 10, 0)
	if c.Target() > p0 {
		t.Fatalf("B2 ghost hit must not grow target: %d -> %d", p0, c.Target())
	}
}

func TestARCCapacityInvariants(t *testing.T) {
	c := NewARC(200)
	for i := 0; i < 5000; i++ {
		k := uint64(i % 97)
		if !c.Get(k, i) {
			c.Admit(k, int64(5+i%40), i)
		}
		if c.Used() > c.Cap() {
			t.Fatalf("step %d: resident %d > cap %d", i, c.Used(), c.Cap())
		}
		b1, b2 := c.GhostBytes()
		if c.t1.Bytes+b1 > c.Cap() {
			t.Fatalf("step %d: |T1|+|B1| = %d > c", i, c.t1.Bytes+b1)
		}
		if c.Used()+b1+b2 > 2*c.Cap() {
			t.Fatalf("step %d: total directory %d > 2c", i, c.Used()+b1+b2)
		}
		if c.Target() < 0 || c.Target() > c.Cap() {
			t.Fatalf("step %d: target %d outside [0,c]", i, c.Target())
		}
	}
}

func TestARCScanResistance(t *testing.T) {
	// ARC's raison d'être: a working set being rescanned should survive
	// a long one-time scan much better than LRU.
	workingSet := 20
	scan := 400
	run := func(p Policy) (hits, total int) {
		tick := 0
		access := func(k uint64, size int64) {
			total++
			if p.Get(k, tick) {
				hits++
			} else {
				p.Admit(k, size, tick)
			}
			tick++
		}
		for round := 0; round < 30; round++ {
			// Two passes over the working set: the second pass promotes
			// into T2 (ARC) or refreshes recency (LRU)...
			for pass := 0; pass < 2; pass++ {
				for w := 0; w < workingSet; w++ {
					access(uint64(w), 10)
				}
			}
			// ...then a long one-time scan tries to flush it out.
			for s := 0; s < scan; s++ {
				access(uint64(1000+round*scan+s), 10)
			}
		}
		return
	}
	arcHits, _ := run(NewARC(300))
	lruHits, _ := run(NewLRU(300))
	if arcHits <= lruHits {
		t.Fatalf("ARC (%d hits) should beat LRU (%d hits) under scans", arcHits, lruHits)
	}
}

func TestARCOversizedAndDoubleAdmit(t *testing.T) {
	c := NewARC(50)
	c.Admit(1, 51, 0)
	if c.Len() != 0 {
		t.Fatal("oversized admitted")
	}
	c.Admit(1, 20, 0)
	c.Admit(1, 20, 0)
	if c.Len() != 1 || c.Used() != 20 {
		t.Fatalf("double admit corrupted state: len=%d used=%d", c.Len(), c.Used())
	}
}

func TestARCContainsExcludesGhosts(t *testing.T) {
	c := NewARC(20)
	c.Admit(0, 10, 0)
	c.Admit(1, 10, 0)
	c.Get(0, 0)
	c.Get(1, 0) // both now in T2
	for k := uint64(2); k < 8; k++ {
		c.Admit(k, 10, 0) // churn produces B1/B2 ghosts
	}
	hasGhost := false
	for k, e := range c.a.live() {
		if e.seg == arcB1 || e.seg == arcB2 {
			hasGhost = true
			if c.Contains(k) {
				t.Fatalf("Contains(%d) true for ghost", k)
			}
			if c.Get(k, 0) {
				t.Fatalf("Get(%d) hit a ghost", k)
			}
		}
	}
	if !hasGhost {
		t.Fatal("expected ghosts")
	}
}
