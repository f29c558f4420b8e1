package main

import "otacache/internal/tier"

// transport says how the clients reach the engine.
type transport int

const (
	// inProcess calls engine.Server.Lookup directly: the engine as a
	// library, no socket, no handler.
	inProcess transport = iota
	// overHTTP goes through server.Client, loopback TCP, and the
	// daemon's handler chain.
	overHTTP
)

// spec is one workload: what is assembled, how it is driven, and how the
// timed window is cut into slices. The numbers are sized for a 2-core
// box; see bench/README.md for the reasoning behind each.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// photos sizes the synthetic trace; a pass is ~3.9 requests per photo.
	photos int
	// filter, engineShards and flash select the otacached assembly:
	// -mode, -engine-shards, and -flash-segment-size 4 MiB.
	filter       tier.FilterKind
	engineShards int
	flash        bool
	transport    transport
	// warmPasses are replayed single-client and in process before the
	// timed window, so every run starts its window from the same state.
	warmPasses int
	// sliceReqs is the request count of one timed slice. Throughput and
	// latency are computed per slice and aggregated across slices.
	sliceReqs int64
	// qualitySlices is how many slices, counted from the window start,
	// make up the fixed request set behind byte_hit_rate,
	// ssd_write_bytes_per_req_byte and engine_heap_mb: a faster commit
	// serves more slices in the same seconds, and the quality metrics
	// must not drift with that.
	qualitySlices int
	// latEvery times one lookup in this many per client. Two clock
	// reads distort a 200 ns in-process lookup; they are noise on a
	// 100 µs round trip.
	latEvery int
}

// workloads is the benchmark: four workloads over three regimes with
// three different bottleneck layers.
var workloads = []spec{
	{
		name:   "engine-proposal",
		why:    "Working set >> cache, in process: policy stripe, CART, history table and engine counters do all the work; no socket, no flash.",
		photos: 300000, filter: tier.Classifier, engineShards: 1,
		transport: inProcess, warmPasses: 2,
		sliceReqs: 400000, qualitySlices: 12, latEvery: 64,
	},
	{
		name:   "engine-sharded-proposal",
		why:    "Same stream through ShardedEngine x4: adds ring routing, four history tables and the shared tick; the delta to engine-proposal is the shard-scaling cost.",
		photos: 300000, filter: tier.Classifier, engineShards: 4,
		transport: inProcess, warmPasses: 2,
		sliceReqs: 400000, qualitySlices: 12, latEvery: 64,
	},
	{
		name:   "engine-original-flash",
		why:    "Admit-all with a flash store attached: 40% of bytes are written, so flash program/GC dominates and the classifier does nothing; engine gains must predict no change here.",
		photos: 60000, filter: tier.AdmitAll, engineShards: 1, flash: true,
		transport: inProcess, warmPasses: 1,
		sliceReqs: 30000, qualitySlices: 8, latEvery: 8,
	},
	{
		name:   "http-proposal",
		why:    "The engine-proposal assembly behind server.New on loopback: net/http, header parsing and the socket are ~99% of a request; only server-layer gains show here.",
		photos: 60000, filter: tier.Classifier, engineShards: 1,
		transport: overHTTP, warmPasses: 1,
		sliceReqs: 10000, qualitySlices: 6, latEvery: 1,
	},
}

// quick shrinks a workload to the scale the harness tests run at.
func (s spec) quick() spec {
	s.photos = 3000
	s.sliceReqs = 2000
	s.qualitySlices = 2
	s.latEvery = 1
	if s.transport == overHTTP {
		s.sliceReqs = 1000
	}
	return s
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
