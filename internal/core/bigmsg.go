package core

import (
	"xbgas/internal/xbrtime"
)

// BroadcastScatterAllgather is the large-message broadcast the paper
// defers to future work ("algorithms optimized for larger message
// sizes need to be added to our existing binomial tree methodology",
// §7): the van de Geijn scheme. The root scatters equal chunks across
// the PEs through the binomial tree, then a ring all-gather circulates
// the chunks until every PE holds the full payload.
//
// Each PE sends ~2·nelems/N elements instead of the tree's nelems per
// hop, so for payloads past a few kilobytes it overtakes the binomial
// tree; the message-size ablation shows the crossover. Contract as
// Broadcast (symmetric dest, root-only src); stride must be 1 (chunked
// transfers are contiguous by construction). The chunk geometry and
// both phases are encoded in the compiled plan (see
// compileScatterAllgather). With one PE, or fewer elements than PEs,
// there is no chunk per PE and the call runs the binomial tree.
//
// Auto-segmentation (SelectSegments) never rewrites this algorithm:
// it already amortises large messages by chunking across PEs, so
// layering per-segment pipelining on top would only add flag traffic.
// Forcing it explicitly keeps its one-shot two-phase shape too —
// SetChunkBytes steers the binomial planners only. A plain Broadcast
// above the segmentation threshold instead stays on the binomial tree
// and pipelines its segments; the message-size ablation compares the
// two large-message strategies.
func BroadcastScatterAllgather(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, nelems, root int) error {
	return dispatch(pe, CollBroadcast, AlgoScatterAllgather, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
	})
}
