// Package lumos5g is the public API of this repository: a Go
// reproduction of "Lumos5G: Mapping and Predicting Commercial mmWave 5G
// Throughput" (Narayanan et al., IMC 2020).
//
// The package exposes four capabilities:
//
//  1. Campaign generation — a mechanistic mmWave radio + mobility
//     simulator regenerates a Lumos5G-style per-second measurement
//     dataset over the paper's three areas (GenerateCampaign,
//     GenerateArea).
//  2. The Lumos5G ML framework — composable feature groups (L, M, T, C
//     and their combinations, Table 6) paired with GDBT and Seq2Seq
//     models plus the 3G/4G-era baselines (KNN, RF, Ordinary Kriging,
//     Harmonic Mean), evaluated exactly as in §6 (Evaluate, Train).
//  3. 5G throughput maps — the Fig 3c/6 artifact (BuildThroughputMap).
//  4. Transferability analysis — §6.2 (Transferability).
//
// A quickstart lives in examples/quickstart; the experiment harness that
// regenerates every table and figure of the paper is cmd/lumosbench.
package lumos5g

import (
	"context"
	"fmt"
	"io"
	"strings"

	"lumos5g/internal/core"
	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/radio"
	"lumos5g/internal/sim"
)

// Re-exported data types. These aliases make the internal implementation
// types part of the public API surface.
type (
	// Record is one per-second measurement sample (Table 1 schema).
	Record = dataset.Record
	// Dataset is an ordered collection of records.
	Dataset = dataset.Dataset
	// Stats summarises a campaign (Table 3).
	Stats = dataset.Stats
	// FeatureGroup is a Table 6 feature group or combination.
	FeatureGroup = features.Group
	// FeatureVector is one fallback-chain query: a value per feature
	// column, NaN where a sensor is absent.
	FeatureVector = features.Vector
	// Model selects a predictor family.
	Model = core.ModelKind
	// Scale bundles hyper-parameters (see EXPERIMENTS.md for the mapping
	// to the paper's settings).
	Scale = core.Scale
	// Result is one model × feature-group evaluation outcome.
	Result = core.Result
	// ThroughputMap is the per-grid 5G throughput map (Fig 3c).
	ThroughputMap = core.ThroughputMap
	// TransferResult is the §6.2 cross-panel generalisation outcome.
	TransferResult = core.TransferResult
	// CampaignConfig controls dataset generation.
	CampaignConfig = sim.Config
	// ResumeOptions tunes checkpointed campaign generation.
	ResumeOptions = sim.ResumeOptions
	// RunResult reports how a checkpointed generation run ended.
	RunResult = sim.RunResult
	// LoadReport summarises a lenient CSV load.
	LoadReport = dataset.LoadReport
	// RowError is one malformed row quarantined by the lenient loader.
	RowError = dataset.RowError
	// Area describes one measurement area.
	Area = env.Area
	// Class is a throughput level (low / medium / high).
	Class = ml.Class
	// MobilityMode is how the UE is carried (stationary/walking/driving).
	MobilityMode = radio.MobilityMode
	// RadioType is the active RAT (LTE or NR).
	RadioType = radio.RadioType
)

// Mobility modes and radio types.
const (
	ModeStationary = radio.Stationary
	ModeWalking    = radio.Walking
	ModeDriving    = radio.Driving
	RadioLTE       = radio.RadioLTE
	RadioNR        = radio.RadioNR
)

// Feature groups (Table 6).
const (
	GroupL   = features.GroupL
	GroupM   = features.GroupM
	GroupT   = features.GroupT
	GroupC   = features.GroupC
	GroupLM  = features.GroupLM
	GroupTM  = features.GroupTM
	GroupLMC = features.GroupLMC
	GroupTMC = features.GroupTMC
)

// Models.
const (
	ModelKNN     = core.ModelKNN
	ModelRF      = core.ModelRF
	ModelOK      = core.ModelOK
	ModelHM      = core.ModelHM
	ModelGDBT    = core.ModelGDBT
	ModelSeq2Seq = core.ModelSeq2Seq
	ModelLSTM    = core.ModelLSTM
)

// Throughput classes (§5.2: low < 300 Mbps, medium 300–700, high > 700).
const (
	ClassLow    = ml.ClassLow
	ClassMedium = ml.ClassMedium
	ClassHigh   = ml.ClassHigh
)

// DefaultCampaign returns the paper-scale campaign configuration
// (30 passes per trajectory, §3.2).
func DefaultCampaign() CampaignConfig { return sim.DefaultConfig() }

// SmallCampaign returns a scaled-down configuration for quick runs.
func SmallCampaign() CampaignConfig { return sim.SmallConfig() }

// Areas returns the three built-in measurement areas (Table 2).
func Areas() []*Area { return env.AllAreas() }

// AreaByName returns one built-in area: "Airport", "Intersection", "Loop".
func AreaByName(name string) (*Area, error) { return env.AreaByName(name) }

// GenerateCampaign simulates the full measurement campaign across all
// areas and returns the raw (unfiltered) dataset.
func GenerateCampaign(cfg CampaignConfig) *Dataset { return sim.RunCampaign(cfg) }

// GenerateArea simulates the campaign for one area.
func GenerateArea(a *Area, cfg CampaignConfig) *Dataset { return sim.RunArea(a, cfg) }

// GenerateCampaignParallel simulates the campaign over the given areas
// (nil means all) on a pool of workers (<=0 means one per CPU) and
// returns a dataset byte-identical to GenerateCampaign's — shards run
// concurrently but merge in canonical order, each on the same random
// streams the serial runner would hand it.
func GenerateCampaignParallel(cfg CampaignConfig, areas []*Area, workers int) *Dataset {
	return sim.RunCampaignParallel(cfg, areas, workers)
}

// GenerateResumable runs a checkpointed campaign directly into outPath,
// persisting progress to checkpointPath after every shard. A cancelled
// run resumes from its checkpoint and yields a byte-identical file; nil
// areas means the full campaign.
func GenerateResumable(ctx context.Context, cfg CampaignConfig, areas []*Area,
	outPath, checkpointPath string, opt ResumeOptions) (RunResult, error) {
	return sim.RunCampaignResumable(ctx, cfg, areas, outPath, checkpointPath, opt)
}

// CleanDataset applies the paper's §3.1 data-quality rules and returns
// the cleaned dataset plus the number of dropped records.
func CleanDataset(d *Dataset) (*Dataset, int) { return d.QualityFilter() }

// WriteCSV / ReadCSV serialise datasets in the repository's CSV schema.
func WriteCSV(d *Dataset, w io.Writer) error { return d.WriteCSV(w) }
func ReadCSV(r io.Reader) (*Dataset, error)  { return dataset.ReadCSV(r) }

// ReadCSVLenient parses like ReadCSV but quarantines malformed data rows
// (counting them and keeping the first few with line numbers) instead of
// aborting the whole load.
func ReadCSVLenient(r io.Reader) (*Dataset, *LoadReport, error) {
	return dataset.ReadCSVLenient(r)
}
func MergeDatasets(parts ...*Dataset) *Dataset { return dataset.Merge(parts...) }

// ParseFeatureGroup parses "L", "T+M", "L+M+C", ... (order-insensitive).
func ParseFeatureGroup(s string) (FeatureGroup, error) { return features.ParseGroup(s) }

// ParseModel parses a model name: KNN, RF, OK, HM, GDBT, Seq2Seq, LSTM.
func ParseModel(s string) (Model, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "KNN":
		return ModelKNN, nil
	case "RF":
		return ModelRF, nil
	case "OK", "KRIGING":
		return ModelOK, nil
	case "HM":
		return ModelHM, nil
	case "GDBT", "GBDT":
		return ModelGDBT, nil
	case "SEQ2SEQ":
		return ModelSeq2Seq, nil
	case "LSTM":
		return ModelLSTM, nil
	}
	return 0, fmt.Errorf("lumos5g: unknown model %q", s)
}

// Evaluate trains the model on the feature group over d (70/30 split by
// default) and scores it with the paper's metrics (MAE, RMSE, weighted
// average F1, low-class recall).
func Evaluate(d *Dataset, g FeatureGroup, m Model, sc Scale) Result {
	return core.Evaluate(d, g, m, sc)
}

// BuildThroughputMap aggregates d into 2 m × 2 m cells (Fig 6). Cells
// with fewer than minSamples samples are omitted.
func BuildThroughputMap(d *Dataset, minSamples int) *ThroughputMap {
	return core.BuildThroughputMap(d, minSamples)
}

// Transferability trains a T+M model on one panel and tests on another
// (§6.2).
func Transferability(d *Dataset, trainPanelID, testPanelID int, nearMeters float64, sc Scale) (*TransferResult, error) {
	return core.Transferability(d, trainPanelID, testPanelID, nearMeters, sc)
}

// FeatureImportance trains a GDBT on the group and returns Fig 22-style
// logical feature importances.
func FeatureImportance(d *Dataset, g FeatureGroup, sc Scale) (names []string, importance []float64, err error) {
	return core.FeatureImportance(d, g, sc)
}

// ClassOf maps a throughput in Mbps to its class.
func ClassOf(mbps float64) Class { return ml.ClassOf(mbps) }
