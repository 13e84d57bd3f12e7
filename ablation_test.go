package hyperledgerlab

import (
	"testing"
	"time"
)

// Ablation benchmarks: the design knobs this reproduction adds on top
// of the paper's experiments. Each reports the run's failure
// percentage and latency as benchmark metrics.

func ablationCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 20 * time.Second
	cfg.Drain = 20 * time.Second
	cfg.Chaincode = EHRChaincode()
	cfg.Workload = EHRWorkload(1)
	return cfg
}

func reportRun(b *testing.B, rep Report) {
	b.ReportMetric(rep.FailurePct, "fail%")
	b.ReportMetric(rep.AvgLatency.Seconds()*1000, "lat_ms")
	b.ReportMetric(rep.Throughput, "tps")
}

// BenchmarkAblationReadOnlySubmission measures recommendation #4:
// answering read-only transactions at endorsement instead of ordering
// them.
func BenchmarkAblationReadOnlySubmission(b *testing.B) {
	for _, mode := range []string{"submit-all", "skip-readonly"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var last Report
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg(int64(i + 1))
				cfg.SkipReadOnlySubmission = mode == "skip-readonly"
				nw, err := NewNetwork(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = nw.Run()
			}
			reportRun(b, last)
			b.ReportMetric(float64(last.ServedReads), "served_reads")
		})
	}
}

// BenchmarkAblationClientCheck measures the optional client-side
// endorsement consistency check of §2 step 3.
func BenchmarkAblationClientCheck(b *testing.B) {
	for _, mode := range []string{"no-check", "client-check"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var last Report
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg(int64(i + 1))
				cfg.ClientCheck = mode == "client-check"
				nw, err := NewNetwork(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = nw.Run()
			}
			reportRun(b, last)
		})
	}
}
