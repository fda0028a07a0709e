// Package compiled flattens fitted tree ensembles (random forest, GBDT
// regressor, GBDT classifier) into a contiguous breadth-first layout and
// evaluates them with a blocked, branch-free batch kernel — the serving
// fast path behind ml.BatchRegressor.
//
// The interpreted predictors walk per-tree []node slices (about 40 bytes
// per node) with an unpredictable branch at every split. The compiled
// form renumbers each tree breadth-first so a node's two children are
// adjacent (right = left+1, only left is stored), packs the quantized
// traversal state into 8-byte nodes, and makes leaves loop to themselves
// with an always-true comparison. A tree of depth D is then evaluated in
// exactly D data-independent steps
//
//	i = left[i] + (q[feat[i]] > bin[i])
//
// with no leaf test and no taken/not-taken split branch — the step is
// computed arithmetically, so deep pipelines never mispredict.
//
// Quantized nodes live in level banks rather than per-tree runs: bank d
// is the concatenation, tree by tree, of every tree's depth-d nodes
// (bank 0 is all T roots at indices 0..T-1). Trees are walked
// breadth-first across the whole ensemble at once — depth outer, tree
// inner — so one depth-step touches exactly one contiguous bank instead
// of striding across T tree-sized runs, and the T (single query) or
// T×blockRows (batch) traversal chains inside a depth-step are all
// data-independent, so their node and bin loads overlap instead of
// serialising on load latency. Trees shallower than the ensemble's
// maximum depth simply spin on their self-looping leaves for the extra
// steps. Batch binning is feature-outer (one feature's edge array stays
// hot across the whole block) into a row-major bin buffer
// (q[r*nFeat+f]), which A/B-measured faster for the traversal's
// data-dependent bin reads than a feature-major block.
//
// The quantized traversal bins each query row once against the training
// Binner's quantile edges and compares uint8 bins. Because every
// internal node's raw threshold is exactly a bin edge (tree.Grow splits
// on edges[feature][bin]), the comparison
//
//	x[f] <= edges[f][bin]   ⇔   BinValue(f, x[f]) <= bin
//
// holds for every input, so the quantized walk reaches the same leaf —
// and therefore produces the same float — as the raw walk.
//
// Equivalence contract: for every input, Predict and PredictInto return
// bit-identical floats to the interpreted ensemble's Predict — same
// float operations, applied in the same order. Per-leaf accumulation is
// acc = init; acc += scale*leaf (tree order); out = acc or acc/div —
// exactly the interpreted loops of forest.Predict, gbdt.Model.Predict
// and gbdt.Classifier.Scores. The parity tests in compiled_test.go and
// the ensemble packages enforce this for forest, GBDT and classifier
// across single/batch/quantized paths.
package compiled

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"lumos5g/internal/ml/tree"
)

// Config describes how leaf values aggregate into a prediction.
type Config struct {
	// NumFeatures is the model's feature dimensionality; every node's
	// split feature must be below it.
	NumFeatures int
	// Init is the accumulator's starting value (0 for a forest, the base
	// prediction for GBDT, the class prior log-odds for a classifier).
	Init float64
	// Scale multiplies every leaf value as it is accumulated (1 for a
	// forest, the learning rate for GBDT).
	Scale float64
	// Div, when non-zero, divides the final accumulator (the ensemble
	// size for a forest's mean; 0 for additive models).
	Div float64
	// Edges are the training Binner's per-feature quantile bin edges.
	// When present they enable the quantized traversal; nil (e.g. a
	// legacy artifact that did not store edges) compiles the raw-compare
	// kernel only.
	Edges [][]float64
}

// qnode is one node of the quantized kernel: 8 bytes, so a whole
// depth-6 tree of 127 nodes is ~1 KiB of hot state.
type qnode struct {
	feat uint16 // split feature (0 at leaves — any in-range value works)
	bin  uint8  // go left when q[feat] <= bin; leafBin at leaves
	_    uint8
	left int32 // global index of the left child; the node itself at leaves
}

// leafBin marks leaves in qnodes: quantized values never exceed 254
// (at most 254 edges per feature), so q <= 255 is always true and a leaf
// steps to its own left — itself — for the remaining fixed-depth steps.
const leafBin = 255

// Ensemble is a compiled ensemble: every tree's nodes flattened
// breadth-first into parallel arrays with global indices, children
// adjacent (right = left+1), plus per-tree root offsets and depths.
type Ensemble struct {
	nFeat int
	init  float64
	scale float64
	div   float64

	treeOff   []int32 // root node index per tree, len == NumTrees
	treeDepth []int32 // fixed traversal step count per tree
	maxDepth  int32   // max(treeDepth): the banked walk's step count
	feature   []int32 // split feature, -1 for leaves (raw kernel + walkers)
	thresh    []float64
	left      []int32   // global left-child index; right = left+1; self at leaves
	value     []float64 // leaf value (leaves only; internal nodes unused)

	// Quantized traversal state (nil when Edges were not given). lnodes
	// and lvalue are the level-banked layout described in the package
	// docs: bank d holds every tree's depth-d nodes, tree by tree, with
	// tree t's root at index t; left still points at the (bank d+1)
	// left child, right = left+1, leaves self-loop. qedges hold the bin
	// edges under the order-preserving uint64 mapping of orderedBits, so
	// block binning runs on integer compares the compiler if-converts
	// instead of float compares it branches on.
	lnodes []qnode
	lvalue []float64
	edges  [][]float64
	qedges [][]uint64
}

// blockRows is the batch kernel's row-block size: large enough to
// amortise streaming each tree's node banks across the block (at 60+
// trees the banks outgrow L1, so per-block re-streaming is the batch
// kernel's dominant memory cost), small enough that the per-block
// accumulator and bin buffers stay cache-resident. A/B-measured against
// 64/128/512 on the 60-tree depth-6 reference ensemble; 256 was the
// floor.
const blockRows = 256

// Compile flattens trees into an Ensemble. Trees must be non-empty and
// structurally valid (as produced by tree.Grow or tree.Import). With
// cfg.Edges set, every internal node's threshold must be one of its
// feature's bin edges — true by construction for trees grown from that
// Binner — or Compile fails rather than mis-quantize.
func Compile(trees []*tree.Tree, cfg Config) (*Ensemble, error) {
	if len(trees) == 0 {
		return nil, errors.New("compiled: no trees")
	}
	if cfg.NumFeatures <= 0 || cfg.NumFeatures > 1<<16 {
		return nil, errors.New("compiled: feature count out of range")
	}
	if cfg.Edges != nil && len(cfg.Edges) < cfg.NumFeatures {
		return nil, fmt.Errorf("compiled: %d features but %d edge sets", cfg.NumFeatures, len(cfg.Edges))
	}
	total := 0
	for _, t := range trees {
		total += t.NumNodes()
	}
	e := &Ensemble{
		nFeat:     cfg.NumFeatures,
		init:      cfg.Init,
		scale:     cfg.Scale,
		div:       cfg.Div,
		treeOff:   make([]int32, len(trees)),
		treeDepth: make([]int32, len(trees)),
		feature:   make([]int32, 0, total),
		thresh:    make([]float64, 0, total),
		left:      make([]int32, 0, total),
		value:     make([]float64, 0, total),
		edges:     cfg.Edges,
	}
	if cfg.Edges != nil {
		e.qedges = make([][]uint64, cfg.NumFeatures)
		for f := 0; f < cfg.NumFeatures; f++ {
			qe := make([]uint64, len(cfg.Edges[f]))
			for i, v := range cfg.Edges[f] {
				qe[i] = orderedBits(v)
			}
			e.qedges[f] = qe
		}
	}
	bfs := make([]treeBFS, len(trees))
	for ti, t := range trees {
		b, err := bfsRenumber(ti, t.Export(), cfg)
		if err != nil {
			return nil, err
		}
		bfs[ti] = b
		e.treeOff[ti] = int32(len(e.feature))
		e.treeDepth[ti] = b.depth
		if b.depth > e.maxDepth {
			e.maxDepth = b.depth
		}
		e.appendFlat(b)
	}
	if e.edges != nil {
		if err := e.buildBanks(bfs); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// treeBFS is one tree's breadth-first renumbering: the old node ids in
// dequeue order, each entry's BFS level, the inverse map, and the tree
// depth (fixed traversal step count).
type treeBFS struct {
	dto   tree.TreeDTO
	order []int32 // old ids in BFS order
	level []int32 // BFS level per order entry (levels are contiguous runs)
	newID []int32 // old id -> BFS position
	depth int32
}

// bfsRenumber walks one tree breadth-first, validating it on the way.
// BFS order is what makes both layouts branch-free friendly: a parent's
// two children are enqueued together, so they land adjacently (only the
// left index need be stored), and BFS order is level order, so each
// level is a contiguous run the bank builder can regroup. The seen guard
// rejects cyclic or converging node graphs that would otherwise loop the
// fixed-depth traversal astray.
func bfsRenumber(ti int, dto tree.TreeDTO, cfg Config) (treeBFS, error) {
	n := int32(len(dto.Nodes))
	if n == 0 {
		return treeBFS{}, fmt.Errorf("compiled: tree %d is empty", ti)
	}
	order := make([]int32, 0, n)
	level := make([]int32, 0, n)
	newID := make([]int32, n)
	seen := make([]bool, n)
	order = append(order, 0)
	level = append(level, 0)
	seen[0] = true
	depth := int32(0)
	for head := 0; head < len(order); head++ {
		old := order[head]
		newID[old] = int32(head)
		lv := level[head]
		if lv > depth {
			depth = lv
		}
		nd := dto.Nodes[old]
		if nd.Feature < 0 {
			continue
		}
		if int(nd.Feature) >= cfg.NumFeatures {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d splits feature %d of %d", ti, old, nd.Feature, cfg.NumFeatures)
		}
		if nd.Left < 0 || nd.Left >= n || nd.Right < 0 || nd.Right >= n {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d child out of range", ti, old)
		}
		if seen[nd.Left] || seen[nd.Right] || nd.Left == nd.Right {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d children revisit a node", ti, old)
		}
		seen[nd.Left], seen[nd.Right] = true, true
		order = append(order, nd.Left, nd.Right)
		level = append(level, lv+1, lv+1)
	}
	return treeBFS{dto: dto, order: order, level: level, newID: newID, depth: depth}, nil
}

// appendFlat appends one renumbered tree to the flat per-tree arrays
// that back the raw-compare kernel and legacy artifacts without edges.
func (e *Ensemble) appendFlat(b treeBFS) {
	off := int32(len(e.feature))
	for pos, old := range b.order {
		nd := b.dto.Nodes[old]
		self := off + int32(pos)
		if nd.Feature < 0 {
			e.feature = append(e.feature, -1)
			e.thresh = append(e.thresh, 0)
			e.left = append(e.left, self)
			e.value = append(e.value, nd.Value)
			continue
		}
		e.feature = append(e.feature, nd.Feature)
		e.thresh = append(e.thresh, nd.Threshold)
		e.left = append(e.left, off+b.newID[nd.Left])
		e.value = append(e.value, 0)
	}
}

// buildBanks regroups the BFS-renumbered trees into the level-banked
// quantized layout. Bank d is the concatenation, tree by tree, of each
// tree's level-d nodes in BFS order; because BFS enqueues siblings
// together and levels are contiguous runs, a parent's children stay
// adjacent inside bank d+1 (right = left+1 survives the regrouping),
// and bank 0 puts tree t's root at global index t.
func (e *Ensemble) buildBanks(bfs []treeBFS) error {
	nTrees := len(bfs)
	nLevels := int(e.maxDepth) + 1
	counts := make([][]int32, nTrees) // counts[t][lv]: tree t's level-lv node count
	starts := make([][]int32, nTrees) // starts[t][lv]: BFS position where level lv begins
	bankSize := make([]int32, nLevels)
	for t, b := range bfs {
		c := make([]int32, nLevels)
		s := make([]int32, nLevels)
		for pos, lv := range b.level {
			if c[lv] == 0 {
				s[lv] = int32(pos)
			}
			c[lv]++
		}
		counts[t], starts[t] = c, s
		for lv, n := range c {
			bankSize[lv] += n
		}
	}
	// gOff[t][lv]: global index of tree t's first level-lv node.
	cur := make([]int32, nLevels)
	off := int32(0)
	for lv, n := range bankSize {
		cur[lv] = off
		off += n
	}
	gOff := make([][]int32, nTrees)
	for t := 0; t < nTrees; t++ {
		g := make([]int32, nLevels)
		for lv := 0; lv < nLevels; lv++ {
			g[lv] = cur[lv]
			cur[lv] += counts[t][lv]
		}
		gOff[t] = g
	}
	e.lnodes = make([]qnode, off)
	e.lvalue = make([]float64, off)
	for t, b := range bfs {
		for pos, old := range b.order {
			lv := b.level[pos]
			g := gOff[t][lv] + int32(pos) - starts[t][lv]
			nd := b.dto.Nodes[old]
			if nd.Feature < 0 {
				e.lnodes[g] = qnode{feat: 0, bin: leafBin, left: g}
				e.lvalue[g] = nd.Value
				continue
			}
			bt, err := quantizeThreshold(e.edges, nd, t, int(old))
			if err != nil {
				return err
			}
			lp := b.newID[nd.Left] // BFS position of the left child
			gl := gOff[t][lv+1] + lp - starts[t][lv+1]
			e.lnodes[g] = qnode{feat: uint16(nd.Feature), bin: bt, left: gl}
		}
	}
	return nil
}

// quantizeThreshold recovers an internal node's bin index from its raw
// threshold: the threshold is edges[feature][bin] by construction, and
// the edges are strictly ascending, so binValue inverts it exactly.
func quantizeThreshold(edges [][]float64, nd tree.NodeDTO, ti, i int) (uint8, error) {
	fe := edges[nd.Feature]
	b := binValue(fe, nd.Threshold)
	if int(b) >= len(fe) || fe[b] != nd.Threshold {
		return 0, fmt.Errorf("compiled: tree %d node %d threshold %v is not a bin edge of feature %d", ti, i, nd.Threshold, nd.Feature)
	}
	return b, nil
}

// binValue maps a raw value to its quantile bin: the index of the first
// edge >= v (identical to tree.Binner.BinValue). Used on the rare paths
// (threshold recovery at compile, single-row Predict).
func binValue(edges []float64, v float64) uint8 {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint8(lo)
}

// orderedBits maps a non-NaN float64 to a uint64 such that
// u(x) < u(y) ⇔ x < y: negatives have all bits flipped, positives only
// the sign bit, and v+0 first folds -0 into +0 so the two zeros (equal
// as floats) map to the same integer. Inputs are binned on these
// integers because integer compares if-convert to branch-free selects.
func orderedBits(v float64) uint64 {
	b := math.Float64bits(v + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// binValueBits is binValue over order-mapped edges: a branchless lower
// bound. The compare is bits.Sub64's borrow flag and the interval update
// a masked add, so a block's binning takes no data-dependent mispredicts
// — the compiler's own if-conversion does not fire on this shape.
func binValueBits(qe []uint64, u uint64) uint8 {
	base, n := uint64(0), uint64(len(qe))
	for n > 1 {
		half := n >> 1
		_, borrow := bits.Sub64(qe[base+half-1], u, 0) // borrow = qe[...] < u
		base += half & (0 - borrow)
		n -= half
	}
	if n == 1 {
		_, borrow := bits.Sub64(qe[base], u, 0)
		base += borrow
	}
	return uint8(base)
}

// binValueBitsPtr is binValueBits over a raw edge pointer: the same
// branchless lower bound with the per-probe bounds checks gone. base
// stays in [0, n] by construction (each masked add keeps base+n inside
// the original interval), so every probe is in range — the block
// binning loop is the kernel's second-hottest path after traversal.
func binValueBitsPtr(edges unsafe.Pointer, nEdges uint64, u uint64) uint8 {
	base, n := uint64(0), nEdges
	for n > 1 {
		half := n >> 1
		probe := *(*uint64)(unsafe.Add(edges, uintptr(base+half-1)*8))
		_, borrow := bits.Sub64(probe, u, 0) // borrow = probe < u
		base += half & (0 - borrow)
		n -= half
	}
	if n == 1 {
		probe := *(*uint64)(unsafe.Add(edges, uintptr(base)*8))
		_, borrow := bits.Sub64(probe, u, 0)
		base += borrow
	}
	return uint8(base)
}

// NumTrees returns the compiled ensemble size.
func (e *Ensemble) NumTrees() int { return len(e.treeOff) }

// NumFeatures returns the expected feature vector length.
func (e *Ensemble) NumFeatures() int { return e.nFeat }

// NumNodes returns the total flattened node count.
func (e *Ensemble) NumNodes() int { return len(e.feature) }

// Quantized reports whether the uint8 bin-compare kernel is available.
func (e *Ensemble) Quantized() bool { return e.edges != nil }

// qstep computes one branch-free traversal step: 0 (left) when
// qv <= bin, 1 (right) otherwise. Both operands are < 2^8, so the
// subtraction's sign bit is exactly the comparison.
func qstep(bin uint8, qv uint8) int32 {
	return int32((uint32(bin) - uint32(qv)) >> 31)
}

// Predict evaluates one feature vector, traversing trees in order with
// the same accumulation the interpreted ensembles use.
func (e *Ensemble) Predict(x []float64) float64 {
	if e.edges != nil {
		return e.predictQuantized(x)
	}
	acc := e.init
	feature, thresh, left := e.feature, e.thresh, e.left
	for _, root := range e.treeOff {
		i := root
		for feature[i] >= 0 {
			if x[feature[i]] <= thresh[i] {
				i = left[i]
			} else {
				i = left[i] + 1
			}
		}
		acc += e.scale * e.value[i]
	}
	if e.div != 0 {
		acc /= e.div
	}
	return acc
}

// predictQuantized bins the row once, then walks the ensemble eight
// trees abreast with register-resident cursors: the eight chains are
// data-independent, and because adjacent trees' level slices are
// adjacent inside each bank, one depth-step of a tree group touches one
// contiguous bank stretch (bank 0 holds all eight roots in one or two
// cache lines). Trees shallower than maxDepth spin on their
// self-looping leaves, so every group walks the same fixed maxDepth
// steps; leaf values accumulate in tree order — the same adds in the
// same order as the interpreted ensemble. Bounds-check elision via
// unsafe follows the same Compile-time in-range proof as the batch
// kernel.
func (e *Ensemble) predictQuantized(x []float64) float64 {
	var qbuf [64]uint8
	q := qbuf[:]
	if e.nFeat > len(qbuf) {
		q = make([]uint8, e.nFeat)
	}
	for f := 0; f < e.nFeat; f++ {
		q[f] = binValueBits(e.qedges[f], orderedBits(x[f]))
	}
	nTrees := len(e.treeOff)
	maxDepth := e.maxDepth
	nodeBase := unsafe.Pointer(&e.lnodes[0])
	valBase := unsafe.Pointer(&e.lvalue[0])
	qBase := unsafe.Pointer(&q[0])
	acc := e.init
	scale := e.scale
	t := 0
	for ; t+8 <= nTrees; t += 8 {
		root := int32(t)
		i0, i1, i2, i3 := root, root+1, root+2, root+3
		i4, i5, i6, i7 := root+4, root+5, root+6, root+7
		for d := maxDepth; d > 0; d-- {
			n0 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i0))*8))
			n1 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i1))*8))
			n2 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i2))*8))
			n3 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i3))*8))
			i0 = n0.left + qstep(n0.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n0.feat))))
			i1 = n1.left + qstep(n1.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n1.feat))))
			i2 = n2.left + qstep(n2.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n2.feat))))
			i3 = n3.left + qstep(n3.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n3.feat))))
			n4 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i4))*8))
			n5 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i5))*8))
			n6 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i6))*8))
			n7 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i7))*8))
			i4 = n4.left + qstep(n4.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n4.feat))))
			i5 = n5.left + qstep(n5.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n5.feat))))
			i6 = n6.left + qstep(n6.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n6.feat))))
			i7 = n7.left + qstep(n7.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n7.feat))))
		}
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i0))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i1))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i2))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i3))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i4))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i5))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i6))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i7))*8))
	}
	lnodes := e.lnodes
	for ; t < nTrees; t++ {
		i := int32(t)
		for d := maxDepth; d > 0; d-- {
			nd := lnodes[i]
			i = nd.left + qstep(nd.bin, q[nd.feat])
		}
		acc += scale * e.lvalue[i]
	}
	if e.div != 0 {
		acc /= e.div
	}
	return acc
}

// PredictInto evaluates rows X[lo:hi] into out[lo:hi] with the blocked
// kernel, taking the quantized path when the ensemble has one. Disjoint
// [lo, hi) ranges may run concurrently (the method reads only shared
// immutable state and writes only out[lo:hi]).
func (e *Ensemble) PredictInto(X [][]float64, out []float64, lo, hi int) {
	if e.edges != nil {
		e.predictIntoQuantized(X, out, lo, hi)
		return
	}
	e.predictIntoRaw(X, out, lo, hi)
}

// predictIntoRaw is the float-compare blocked kernel: trees outer,
// row-blocks inner, so a tree's nodes are streamed once per block. It
// serves ensembles loaded from legacy artifacts without stored edges.
func (e *Ensemble) predictIntoRaw(X [][]float64, out []float64, lo, hi int) {
	feature, thresh, left, value := e.feature, e.thresh, e.left, e.value
	var acc [blockRows]float64
	for b := lo; b < hi; b += blockRows {
		n := hi - b
		if n > blockRows {
			n = blockRows
		}
		for r := 0; r < n; r++ {
			acc[r] = e.init
		}
		for _, root := range e.treeOff {
			for r := 0; r < n; r++ {
				x := X[b+r]
				i := root
				for feature[i] >= 0 {
					if x[feature[i]] <= thresh[i] {
						i = left[i]
					} else {
						i = left[i] + 1
					}
				}
				acc[r] += e.scale * value[i]
			}
		}
		e.flush(acc[:n], out[b:b+n])
	}
}

// stackFeatures is the widest model whose block bin buffer lives on the
// stack (blockRows × stackFeatures bytes, 8 KiB). Every serving model
// fits — the feature vector has 21 columns — so batch prediction
// allocates nothing per call, whatever the scheduler or the race
// detector does. Wider models allocate their buffer once per call.
const stackFeatures = 32

// predictIntoQuantized bins each row once per block (feature-outer, so
// one feature's edge array stays hot across the block; the bins store
// row-major, which A/B-measured ~10% faster for the traversal's
// data-dependent reads than a feature-major block at 60-tree
// ensembles), then walks the banked layout tree-outer, eight rows
// abreast with register-resident cursors: each tree's depth-step
// advances eight data-independent chains from its slice of bank d to
// its slice of bank d+1, so node and bin loads overlap instead of
// serialising on load latency, without spilling T×blockRows cursors to
// memory the way a fully depth-outer block walk would (measured ~30%
// slower — the single-query path, with only T cursors, does walk fully
// depth-outer). The unsafe loads elide bounds checks the compiler
// cannot: every index is proven in range at Compile time (left child
// indices land inside lnodes, feat < NumFeatures, leaves self-loop),
// and the parity/fuzz suite pins the kernel against the interpreted
// walk.
func (e *Ensemble) predictIntoQuantized(X [][]float64, out []float64, lo, hi int) {
	lnodes, lvalue, nf := e.lnodes, e.lvalue, e.nFeat
	nTrees := len(e.treeOff)
	scale := e.scale
	var acc [blockRows]float64
	var qbuf [blockRows * stackFeatures]uint8
	q := qbuf[:] // bins, row-major: q[r*nf+f]
	if nf > stackFeatures {
		q = make([]uint8, nf*blockRows)
	}
	for b := lo; b < hi; b += blockRows {
		n := hi - b
		if n > blockRows {
			n = blockRows
		}
		rows := X[b : b+n]
		// Feature-outer binning keeps one feature's edge array hot across
		// the whole block.
		for f := 0; f < nf; f++ {
			qe := e.qedges[f]
			if len(qe) == 0 {
				for r := range rows {
					q[r*nf+f] = 0
				}
				continue
			}
			eb, ne := unsafe.Pointer(&qe[0]), uint64(len(qe))
			for r, x := range rows {
				q[r*nf+f] = binValueBitsPtr(eb, ne, orderedBits(x[f]))
			}
		}
		for r := 0; r < n; r++ {
			acc[r] = e.init
		}
		nodeBase := unsafe.Pointer(&lnodes[0])
		valBase := unsafe.Pointer(&lvalue[0])
		qBase := unsafe.Pointer(&q[0])
		for t := 0; t < nTrees; t++ {
			root := int32(t) // bank 0: tree t's root is global index t
			depth := e.treeDepth[t]
			r := 0
			for ; r+8 <= n; r += 8 {
				o0 := (r + 0) * nf
				o1 := (r + 1) * nf
				o2 := (r + 2) * nf
				o3 := (r + 3) * nf
				o4 := (r + 4) * nf
				o5 := (r + 5) * nf
				o6 := (r + 6) * nf
				o7 := (r + 7) * nf
				i0, i1, i2, i3 := root, root, root, root
				i4, i5, i6, i7 := root, root, root, root
				for d := depth; d > 0; d-- {
					n0 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i0))*8))
					n1 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i1))*8))
					n2 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i2))*8))
					n3 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i3))*8))
					i0 = n0.left + qstep(n0.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o0+int(n0.feat)))))
					i1 = n1.left + qstep(n1.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o1+int(n1.feat)))))
					i2 = n2.left + qstep(n2.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o2+int(n2.feat)))))
					i3 = n3.left + qstep(n3.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o3+int(n3.feat)))))
					n4 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i4))*8))
					n5 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i5))*8))
					n6 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i6))*8))
					n7 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i7))*8))
					i4 = n4.left + qstep(n4.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o4+int(n4.feat)))))
					i5 = n5.left + qstep(n5.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o5+int(n5.feat)))))
					i6 = n6.left + qstep(n6.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o6+int(n6.feat)))))
					i7 = n7.left + qstep(n7.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o7+int(n7.feat)))))
				}
				acc[r+0] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i0))*8))
				acc[r+1] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i1))*8))
				acc[r+2] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i2))*8))
				acc[r+3] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i3))*8))
				acc[r+4] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i4))*8))
				acc[r+5] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i5))*8))
				acc[r+6] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i6))*8))
				acc[r+7] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i7))*8))
			}
			for ; r < n; r++ {
				row := q[r*nf : (r+1)*nf]
				i := root
				for d := depth; d > 0; d-- {
					nd := lnodes[i]
					i = nd.left + qstep(nd.bin, row[nd.feat])
				}
				acc[r] += scale * lvalue[i]
			}
		}
		e.flush(acc[:n], out[b:b+n])
	}
}

// flush finalises one block of accumulators into the output slice.
func (e *Ensemble) flush(acc, out []float64) {
	if e.div != 0 {
		for r := range acc {
			out[r] = acc[r] / e.div
		}
		return
	}
	copy(out, acc)
}

// PredictBatch is the allocate-and-fill convenience over PredictInto.
func (e *Ensemble) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	e.PredictInto(X, out, 0, len(X))
	return out
}
