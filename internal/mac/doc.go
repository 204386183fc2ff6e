// Package mac provides the substrate shared by all six uplink access
// control protocols: station state, the request/contention machinery with
// permission probabilities (§2, "Request Contention Model"), voice
// reservations, the optional base-station request queue (§4.5), CSI
// estimate lifecycle, and the transmission bookkeeping that converts PHY
// packet-error draws into the paper's performance metrics.
//
// # Layering
//
// A System is one cell's simulation state; a Protocol (charisma, drma,
// dtdma, rama, rmav — each its own subpackage) drives it one frame at a
// time through BeginFrame → RunFrame → EndFrame. Protocols observe and
// mutate stations only through the System's helpers (ContendStamped,
// NewRequest, TransmitVoice/TransmitData, the queue operations), which
// keeps the metric accounting and the randomness discipline in one
// place: MAC-side draws (contention coins, packet errors, CSI noise)
// come from the System's stream, never from the channel or traffic
// streams, so every protocol observes identical channel and traffic
// sample paths — the paper's common-random-numbers comparison.
//
// A System builds every station it holds: System.Reset, the one way to
// populate a cell, builds station i deferred with ID i (its index in
// Stations and in every slab), and the Population's Materialize hook
// hands it its sources and fading process at its first wake or when an
// observer needs them (SyncChannel, MaterializeAll).
//
// # Performance invariants
//
// The frame hot path is allocation-free at steady state and costs
// O(active stations), not O(population):
//
//   - The station registry (registry.go) buckets stations by state
//     (idle/pending/reserved/talkspurt/backlogged) in bitsets with an
//     idle wake queue, so frame scans touch only stations that can act.
//   - Channel fading is replayed lazily: an unobserved station's fading
//     is deferred and caught up in one batched AdvanceSteps when next
//     observed, consuming exactly the draws the eager schedule would
//     have (see the draw-order contract in package channel) — results
//     are byte-identical to advancing every station every frame.
//   - Request objects are pooled per System (BorrowRequest/FreeRequest):
//     a request lives from creation to retirement (served, rejected, or
//     scrubbed) and is then recycled, so schedulers allocate nothing per
//     frame once scratch high-water marks are reached. TakeQueue hands
//     out the BS request queue's contents but keeps its backing array,
//     so a per-frame take and re-enqueue reuses one buffer.
//
// TestFrameHotPathAllocs (idle cell), TestIdleWakeHotPathAllocs (idle-wake
// cycle at 10⁵ stations) and the facade-level
// TestActiveFrameSteadyStateAllocs (active cell, every protocol, both
// queue variants) pin these invariants. Each counts every malloc of one
// batch of frames: the idle cell must make none, and the other two allow
// 64 per 8,000 frames for a traffic buffer or wheel bucket growing past
// its high-water mark.
package mac
