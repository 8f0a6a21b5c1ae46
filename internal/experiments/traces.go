package experiments

import (
	"fmt"

	"ompsscluster/internal/obs"
)

// TraceBundle is one traced run's observability output: its recorder
// holds the event ring (Chrome trace export, metrics registry) and the
// busy/owned timelines (CSV, Paraver and text views).
type TraceBundle struct {
	Label string
	Obs   *obs.Recorder
}

// TraceBundles runs the traced variant of the given experiment and
// returns one bundle per configuration. Unknown or untraced experiment
// ids are a hard error listing the supported set.
func TraceBundles(id string, sc Scale) ([]TraceBundle, error) {
	switch id {
	case "fig5":
		return Fig5TraceBundles(sc), nil
	case "fig8":
		return Fig8TraceBundles(sc), nil
	case "fig9":
		return Fig9TraceBundles(sc), nil
	case "policies":
		return PoliciesTraceBundles(sc), nil
	case "efficiency":
		return EfficiencyTraceBundles(sc), nil
	}
	return nil, fmt.Errorf("experiments: no traced variant of %q (have fig5, fig8, fig9, policies, efficiency)", id)
}

// BuildMetrics aggregates the bundles' event streams into one merged
// metrics registry (counters add, histograms merge bucket-wise).
func BuildMetrics(bundles []TraceBundle) (*obs.Metrics, error) {
	var merged *obs.Metrics
	for _, b := range bundles {
		m := obs.BuildMetrics(b.Obs)
		if merged == nil {
			merged = m
			continue
		}
		if err := merged.Merge(m); err != nil {
			return nil, fmt.Errorf("experiments: merging %s metrics: %w", b.Label, err)
		}
	}
	return merged, nil
}
