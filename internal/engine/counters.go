package engine

// Counter describes one Metrics field: its Go name, the help text the
// daemon's /metrics page publishes for it, and an accessor addressing
// the field. Sub, Add, Snapshot and the /metrics exposition loop over
// Counters instead of naming fields.
type Counter struct {
	Name  string
	Help  string
	Field func(*Metrics) *int64
}

// Indices into Engine.c, one per engine-owned counter. They follow the
// first numEngineCounters rows of Counters, so Snapshot can copy the
// array row by row; the remaining rows mirror the attached flash store.
const (
	cRequests = iota
	cHits
	cHitBytes
	cMisses
	cWrites
	cWriteBytes
	cBypassed
	cRectified
	cDegraded
	cTotalBytes
	numEngineCounters
)

// Counters lists every Metrics field in declaration order.
var Counters = []Counter{
	{"Requests", "Requests served (Lookup and Get calls) since boot.",
		func(m *Metrics) *int64 { return &m.Requests }},
	{"Hits", "Requests answered from cache residency.",
		func(m *Metrics) *int64 { return &m.Hits }},
	{"HitBytes", "Bytes of the requests answered from cache residency.",
		func(m *Metrics) *int64 { return &m.HitBytes }},
	{"Misses", "Requests not resident at lookup time.",
		func(m *Metrics) *int64 { return &m.Misses }},
	{"Writes", "Objects admitted and written to the cache device.",
		func(m *Metrics) *int64 { return &m.Writes }},
	{"WriteBytes", "Bytes admitted and written to the cache device.",
		func(m *Metrics) *int64 { return &m.WriteBytes }},
	{"Bypassed", "Missed objects the admission filter declined to cache.",
		func(m *Metrics) *int64 { return &m.Bypassed }},
	{"Rectified", "Admission decisions flipped by the rectifier (predicted one-time but admitted, or vice versa).",
		func(m *Metrics) *int64 { return &m.Rectified }},
	{"Degraded", "Admission decisions served by the circuit breaker's fallback path instead of the primary filter.",
		func(m *Metrics) *int64 { return &m.Degraded }},
	{"TotalBytes", "Bytes requested across all requests.",
		func(m *Metrics) *int64 { return &m.TotalBytes }},

	{"FlashHostBytes", "Bytes the host wrote to the flash store (admissions; excludes GC relocation).",
		func(m *Metrics) *int64 { return &m.FlashHostBytes }},
	{"FlashGCBytes", "Bytes the flash garbage collector relocated to salvage live objects.",
		func(m *Metrics) *int64 { return &m.FlashGCBytes }},
	{"FlashErases", "Flash erase-block erasures across all segments.",
		func(m *Metrics) *int64 { return &m.FlashErases }},
	{"FlashReadErrors", "Uncorrectable flash device reads (extent dropped, request degraded to a miss).",
		func(m *Metrics) *int64 { return &m.FlashReadErrors }},
	{"FlashCorruptExtents", "Flash extents dropped for checksum mismatch (client read, scrub, or relocation).",
		func(m *Metrics) *int64 { return &m.FlashCorruptExtents }},
	{"FlashRetiredBlocks", "Flash erase blocks retired after a failed program or erase.",
		func(m *Metrics) *int64 { return &m.FlashRetiredBlocks }},
}
