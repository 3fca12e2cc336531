package datasets

import (
	"fmt"

	"scgnn/internal/tensor"
)

// The four benchmark datasets of the paper, rebuilt as synthetic analogues at
// laptop scale. The *relative* statistics follow the published shapes:
//
//	          nodes (paper)   avg degree (paper)   classes   density rank
//	Reddit      233k             489.3               41        1 (densest)
//	Yelp        717k              19.5               100*      2
//	Ogbn-prod. 2.45M              25.8               47        2
//	PubMed      19.7k              4.5                3        4 (sparsest)
//
// (*Yelp is multi-label in reality; the reproduction treats it as
// single-label multi-class since the compression experiments only need the
// graph shape and a trainable objective.)
//
// Node counts are scaled down ~100-1000× so the full experiment matrix runs
// in seconds; average degrees are scaled to preserve the density *ordering*
// and the ratio between Reddit and the rest (Fig. 12(a) reproduces the
// degree→compression-ratio dependence with these values).

// RedditSim mimics Reddit: the high-density, strong-community dataset.
func RedditSim(seed int64) *Dataset {
	return Generate(redditSimSpec(seed))
}

func redditSimSpec(seed int64) Spec {
	return Spec{
		Name:       "reddit-sim",
		Nodes:      1200,
		AvgDegree:  56,
		Classes:    8,
		FeatureDim: 32,
		Homophily:  0.85,
		LabelNoise: 0.034,
		Seed:       seed,
	}
}

// YelpSim mimics Yelp: medium density, low label signal (the paper reports
// only ~65% accuracy on Yelp, so the feature noise is cranked up).
func YelpSim(seed int64) *Dataset {
	return Generate(yelpSimSpec(seed))
}

func yelpSimSpec(seed int64) Spec {
	return Spec{
		Name:         "yelp-sim",
		Nodes:        1500,
		AvgDegree:    12,
		Classes:      6,
		FeatureDim:   32,
		Homophily:    0.72,
		FeatureNoise: 2.6,
		LabelNoise:   0.40,
		Seed:         seed,
	}
}

// OgbnProductsSim mimics Ogbn-products: medium density, many classes,
// moderate signal (~79% paper accuracy).
func OgbnProductsSim(seed int64) *Dataset {
	return Generate(ogbnProductsSimSpec(seed))
}

func ogbnProductsSimSpec(seed int64) Spec {
	return Spec{
		Name:         "ogbn-products-sim",
		Nodes:        1600,
		AvgDegree:    14,
		Classes:      10,
		FeatureDim:   32,
		Homophily:    0.8,
		FeatureNoise: 1.7,
		LabelNoise:   0.225,
		Seed:         seed,
	}
}

// PubMedSim mimics PubMed: the low-density citation graph with 3 classes and
// ~77% paper accuracy.
func PubMedSim(seed int64) *Dataset {
	return Generate(pubMedSimSpec(seed))
}

func pubMedSimSpec(seed int64) Spec {
	return Spec{
		Name:         "pubmed-sim",
		Nodes:        1000,
		AvgDegree:    4.5,
		Classes:      3,
		FeatureDim:   16,
		Homophily:    0.78,
		FeatureNoise: 1.4,
		LabelNoise:   0.26,
		Seed:         seed,
	}
}

// The scale-out family: Reddit-shaped synthetics at 10k/100k/1M nodes, the
// workloads behind BENCH_scale.json and the million-node ROADMAP item. They
// stream through the dedup sampler into the flat CSR constructor, so peak
// generation memory is the dedup set plus the final CSR — never an edge
// slice. Average degree tapers as N grows: real Reddit's 489 would put the
// 1M preset at ~10⁹ arcs (beyond the int32 CSR boundary and far beyond a
// single-host planning budget), so the family instead preserves the
// density *dominance* over every other preset (all ≤14) while keeping the
// largest graph tractable end to end — generate, partition, plan, and run
// worker-cluster rounds — on one machine.

// RedditSim10K is the 10k-node member of the scale family.
func RedditSim10K(seed int64) *Dataset {
	return Generate(redditSim10KSpec(seed))
}

func redditSim10KSpec(seed int64) Spec {
	return Spec{
		Name:       "reddit-sim-10k",
		Nodes:      10_000,
		AvgDegree:  48,
		Classes:    16,
		FeatureDim: 32,
		Homophily:  0.85,
		LabelNoise: 0.034,
		Seed:       seed,
	}
}

// RedditSim100K is the 100k-node member of the scale family — the preset the
// verify-gate race smoke and TestPlanPipelineAtScale build.
func RedditSim100K(seed int64) *Dataset {
	return Generate(redditSim100KSpec(seed))
}

func redditSim100KSpec(seed int64) Spec {
	return Spec{
		Name:       "reddit-sim-100k",
		Nodes:      100_000,
		AvgDegree:  32,
		Classes:    32,
		FeatureDim: 32,
		Homophily:  0.88,
		LabelNoise: 0.034,
		Seed:       seed,
	}
}

// redditSim1MSpec is the million-node member of the scale family: 8M
// undirected edges / 16M directed arcs. Homophily is raised so the
// cross-partition boundary (and with it the dense per-pair DBG bit matrices)
// stays within a single host's memory at 8 partitions.
func redditSim1MSpec(seed int64) Spec {
	return Spec{
		Name:       "reddit-sim-1m",
		Nodes:      1_000_000,
		AvgDegree:  16,
		Classes:    64,
		FeatureDim: 32,
		Homophily:  0.9,
		LabelNoise: 0.034,
		Seed:       seed,
	}
}

// ScaleNames lists the scale-out presets smallest first.
func ScaleNames() []string {
	return []string{"reddit-sim-10k", "reddit-sim-100k", "reddit-sim-1m"}
}

// SpecByName returns the named benchmark preset's generator spec, so callers
// can adjust storage knobs (Spec.AllocFeatures) before generating.
func SpecByName(name string, seed int64) (Spec, error) {
	switch name {
	case "reddit-sim", "reddit":
		return redditSimSpec(seed), nil
	case "yelp-sim", "yelp":
		return yelpSimSpec(seed), nil
	case "ogbn-products-sim", "ogbn-products", "products":
		return ogbnProductsSimSpec(seed), nil
	case "pubmed-sim", "pubmed":
		return pubMedSimSpec(seed), nil
	case "reddit-sim-10k", "reddit-10k":
		return redditSim10KSpec(seed), nil
	case "reddit-sim-100k", "reddit-100k":
		return redditSim100KSpec(seed), nil
	case "reddit-sim-1m", "reddit-1m":
		return redditSim1MSpec(seed), nil
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q (want reddit-sim, yelp-sim, ogbn-products-sim, pubmed-sim, or a scale preset reddit-sim-{10k,100k,1m})", name)
}

// ByName returns the named benchmark dataset generator output.
func ByName(name string, seed int64) (*Dataset, error) {
	return ByNameWith(name, seed, nil)
}

// ByNameWith is ByName with a feature-storage allocator (see
// Spec.AllocFeatures; nil is the in-heap default). The dataset is
// bit-identical to ByName's for every allocator.
func ByNameWith(name string, seed int64, allocFeatures func(rows, cols int) *tensor.Matrix) (*Dataset, error) {
	spec, err := SpecByName(name, seed)
	if err != nil {
		return nil, err
	}
	spec.AllocFeatures = allocFeatures
	return Generate(spec), nil
}

// Names lists the four benchmark datasets in the paper's display order.
func Names() []string {
	return []string{"reddit-sim", "yelp-sim", "ogbn-products-sim", "pubmed-sim"}
}

// AllBenchmarks generates all four benchmark datasets with the given seed.
func AllBenchmarks(seed int64) []*Dataset {
	return []*Dataset{RedditSim(seed), YelpSim(seed), OgbnProductsSim(seed), PubMedSim(seed)}
}

// DegreeSweep generates a family of otherwise-identical datasets whose
// average degree sweeps over the given values — the workload behind
// Fig. 12(a)'s "impact of average degrees" study.
func DegreeSweep(degrees []float64, seed int64) []*Dataset {
	out := make([]*Dataset, len(degrees))
	for i, d := range degrees {
		out[i] = Generate(Spec{
			Name:       fmt.Sprintf("sweep-d%.1f", d),
			Nodes:      900,
			AvgDegree:  d,
			Classes:    6,
			FeatureDim: 24,
			Homophily:  0.8,
			Seed:       seed + int64(i),
		})
	}
	return out
}
