package cache

import "testing"

// BenchmarkPolicies measures one request — Get, and Admit on a miss — on
// every list policy in steady state: about 40k residents of 1–31 bytes
// drawn from a key space three times the capacity with a hot quarter,
// so roughly half the requests hit and most misses evict.
func BenchmarkPolicies(b *testing.B) {
	const capacity = 640 << 10
	keys, sizes, _ := digestStream(capacity, 1<<20)
	for _, name := range []string{"lru", "fifo", "s3lru", "arc", "lirs"} {
		b.Run(name, func(b *testing.B) {
			p, err := New(name, capacity, nil)
			if err != nil {
				b.Fatal(err)
			}
			request := func(i int) {
				j := i % len(keys)
				if !p.Get(keys[j], i) {
					p.Admit(keys[j], sizes[j], i)
				}
			}
			for i := 0; i < len(keys); i++ {
				request(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				request(i)
			}
		})
	}
}

// BenchmarkShardedGet is BenchmarkPolicies' request on a 16-stripe LRU,
// once through the stripe locks and once through the unlocked view an
// engine with a flash store drives under its own shard lock: the
// difference is what the stripe locks cost a request that needs none.
func BenchmarkShardedGet(b *testing.B) {
	const capacity = 640 << 10
	keys, sizes, _ := digestStream(capacity, 1<<20)
	for _, view := range []string{"locked", "unlocked"} {
		b.Run(view, func(b *testing.B) {
			s := newShardedLRU(b, capacity, 16)
			var p Policy = s
			if view == "unlocked" {
				p = s.Unlocked()
			}
			request := func(i int) {
				j := i % len(keys)
				if !p.Get(keys[j], i) {
					p.Admit(keys[j], sizes[j], i)
				}
			}
			for i := 0; i < len(keys); i++ {
				request(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				request(i)
			}
		})
	}
}
