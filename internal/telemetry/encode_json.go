package telemetry

import (
	"encoding/json"
	"io"
)

// jsonExposition is the document WriteJSON emits. All ordering is
// deterministic (families by name, series by label values) so scrapes
// diff cleanly and golden tests stay stable.
type jsonExposition struct {
	Namespace string       `json:"namespace,omitempty"`
	Metrics   []jsonFamily `json:"metrics"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	// Labels preserves key order via a dedicated marshaller below; nil
	// (unlabeled series) omits the field entirely.
	Labels *jsonLabels `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Count/Sum/Quantiles/Buckets are set for histograms.
	Count *uint64  `json:"count,omitempty"`
	Sum   *float64 `json:"sum,omitempty"`
	// Quantiles carries p50/p90/p99 estimates so consumers (moas-top,
	// /debug/status) don't re-derive them client-side; omitted when the
	// histogram holds no observations.
	Quantiles *jsonQuantiles `json:"quantiles,omitempty"`
	Buckets   []jsonBucket   `json:"buckets,omitempty"`
}

type jsonQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

type jsonBucket struct {
	// LE is the bucket's inclusive upper bound, "+Inf" for the last.
	LE string `json:"le"`
	// Count is cumulative, matching the Prometheus exposition.
	Count uint64 `json:"count"`
}

// jsonLabels marshals label pairs as an object in declaration order
// (encoding/json sorts map keys, which would scramble the registry's
// key order).
type jsonLabels struct {
	keys   []string
	values []string
}

func (l jsonLabels) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for i, k := range l.keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vb, err := json.Marshal(l.values[i])
		if err != nil {
			return nil, err
		}
		buf = append(buf, kb...)
		buf = append(buf, ':')
		buf = append(buf, vb...)
	}
	return append(buf, '}'), nil
}

// WriteJSON writes the registry as an indented JSON document — the
// machine-readable twin of WritePrometheus, for tooling that would
// rather json.Unmarshal than parse the text format.
func WriteJSON(w io.Writer, r *Registry) error {
	doc := jsonExposition{
		Namespace: r.Name(),
		Metrics:   []jsonFamily{},
	}
	for _, fam := range r.Gather() {
		jf := jsonFamily{
			Name:   fam.Name,
			Type:   fam.Kind.String(),
			Help:   fam.Help,
			Series: []jsonSeries{},
		}
		for _, s := range fam.Series {
			js := jsonSeries{}
			if len(fam.LabelKeys) > 0 {
				js.Labels = &jsonLabels{keys: fam.LabelKeys, values: s.LabelValues}
			}
			if h := s.Histogram; h != nil {
				count, sum := h.Count, h.Sum
				js.Count = &count
				js.Sum = &sum
				if count > 0 {
					js.Quantiles = &jsonQuantiles{
						P50: h.Quantile(0.50).Seconds(),
						P90: h.Quantile(0.90).Seconds(),
						P99: h.Quantile(0.99).Seconds(),
					}
				}
				cum := uint64(0)
				for i, ub := range h.Bounds {
					cum += h.Counts[i]
					js.Buckets = append(js.Buckets, jsonBucket{LE: formatFloat(ub), Count: cum})
				}
				js.Buckets = append(js.Buckets, jsonBucket{LE: "+Inf", Count: h.Count})
			} else {
				v := s.Value
				js.Value = &v
			}
			jf.Series = append(jf.Series, js)
		}
		doc.Metrics = append(doc.Metrics, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
