// Package features implements the paper's feature grouping (Table 6): the
// primary groups L (location), M (mobility), T (tower) and C (connection),
// and the composed groups L+M, T+M, L+M+C and T+M+C. It vectorises
// dataset records into model-ready matrices, imputes missing 5G signal
// fields with documented sentinels, encodes circular quantities as
// sin/cos pairs, derives past-throughput features per trace, and windows
// traces into sequences for the Seq2Seq models.
package features

import (
	"fmt"
	"sort"
	"strings"

	"lumos5g/internal/dataset"
)

// Group is a feature group or combination.
type Group int

const (
	// GroupL: pixelised location only.
	GroupL Group = iota
	// GroupM: moving speed + compass direction.
	GroupM
	// GroupT: UE-panel distance + positional angle + mobility angle.
	GroupT
	// GroupC: past throughput + radio type + signal strengths + handoffs.
	GroupC
	// GroupLM is the Location+Mobility model.
	GroupLM
	// GroupTM is the Tower+Mobility model (speed + T features; direction
	// is already encoded by θ_m, per Table 6).
	GroupTM
	// GroupLMC is Location+Mobility+Connection.
	GroupLMC
	// GroupTMC is Tower+Mobility+Connection.
	GroupTMC
)

// AllGroups lists the groups evaluated in Tables 7–9, in the paper's
// row order.
var AllGroups = []Group{GroupL, GroupLM, GroupTM, GroupLMC, GroupTMC}

func (g Group) String() string {
	switch g {
	case GroupL:
		return "L"
	case GroupM:
		return "M"
	case GroupT:
		return "T"
	case GroupC:
		return "C"
	case GroupLM:
		return "L+M"
	case GroupTM:
		return "T+M"
	case GroupLMC:
		return "L+M+C"
	case GroupTMC:
		return "T+M+C"
	}
	return "?"
}

// ParseGroup parses names like "L", "T+M", "L+M+C" (order-insensitive,
// case-insensitive).
func ParseGroup(s string) (Group, error) {
	parts := strings.Split(strings.ToUpper(strings.TrimSpace(s)), "+")
	sort.Strings(parts)
	key := strings.Join(parts, "+")
	switch key {
	case "L":
		return GroupL, nil
	case "M":
		return GroupM, nil
	case "T":
		return GroupT, nil
	case "C":
		return GroupC, nil
	case "L+M":
		return GroupLM, nil
	case "M+T":
		return GroupTM, nil
	case "C+L+M":
		return GroupLMC, nil
	case "C+M+T":
		return GroupTMC, nil
	}
	return 0, fmt.Errorf("features: unknown group %q", s)
}

// usesT reports whether the group needs surveyed panel information.
func (g Group) usesT() bool {
	return g == GroupT || g == GroupTM || g == GroupTMC
}

// UsesConnection reports whether the group includes connection (C)
// features — past throughput and PHY-layer state. Sequence models prime
// their decoder with the last observed throughput only for these groups,
// since other groups must not see throughput history (Table 6).
func (g Group) UsesConnection() bool {
	return g == GroupC || g == GroupLMC || g == GroupTMC
}

// Sentinel values used to impute 5G signal fields while the UE is on LTE.
// They sit at the bottom of each field's 3GPP reporting range, so "no 5G
// signal" is ordered below every genuine measurement — a convention tree
// and distance models both digest.
const (
	SentinelSSRsrp = -140.0
	SentinelSSRsrq = -43.0
	SentinelSSSinr = -25.0
)

// PastWindow is the history length for the past-throughput features.
const PastWindow = 5

// Matrix is a vectorised dataset.
type Matrix struct {
	X     [][]float64
	Y     []float64
	Names []string
	// RecordIdx maps each row back to its record index in the source
	// dataset (rows can be skipped, e.g. T groups on unsurveyed areas).
	RecordIdx []int
}

// Build vectorises d under the given feature group. Records lacking the
// required fields (tower features in unsurveyed areas) are skipped.
// Past-throughput features are derived per trace in time order.
func Build(d *dataset.Dataset, g Group) *Matrix {
	cols := g.Columns()
	m := &Matrix{Names: GroupNames(g)}
	past := pastThroughputs(d)
	for i := range d.Records {
		r := &d.Records[i]
		if g.usesT() && !r.HasPanelInfo() {
			continue
		}
		v := fill(r, past[i])
		m.X = append(m.X, v.Row(cols))
		m.Y = append(m.Y, r.ThroughputMbps)
		m.RecordIdx = append(m.RecordIdx, i)
	}
	return m
}

// pastInfo carries the derived history features for one record.
type pastInfo struct {
	last  float64
	hmean float64
}

// pastThroughputs computes, for every record index, the previous
// throughput and the harmonic mean of the last PastWindow throughputs
// within the same trace. The first record of a trace uses its own value
// (no history yet), mirroring how an app warms up its estimator.
func pastThroughputs(d *dataset.Dataset) []pastInfo {
	out := make([]pastInfo, len(d.Records))
	// Group record indices per trace, ordered by second.
	byTrace := make(map[dataset.TraceKey][]int)
	for i := range d.Records {
		r := &d.Records[i]
		k := dataset.TraceKey{Area: r.Area, Trajectory: r.Trajectory, Pass: r.Pass}
		byTrace[k] = append(byTrace[k], i)
	}
	for _, idxs := range byTrace {
		sort.Slice(idxs, func(a, b int) bool {
			return d.Records[idxs[a]].Second < d.Records[idxs[b]].Second
		})
		var hist []float64
		for _, i := range idxs {
			cur := d.Records[i].ThroughputMbps
			if len(hist) == 0 {
				out[i] = pastInfo{last: cur, hmean: cur}
			} else {
				w := len(hist)
				if w > PastWindow {
					w = PastWindow
				}
				var invSum float64
				for _, v := range hist[len(hist)-w:] {
					if v < 0.1 {
						v = 0.1
					}
					invSum += 1 / v
				}
				out[i] = pastInfo{
					last:  hist[len(hist)-1],
					hmean: float64(w) / invSum,
				}
			}
			hist = append(hist, cur)
		}
	}
	return out
}
