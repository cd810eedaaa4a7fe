package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
)

// TraceRun executes one representative evaluation — Q2 under
// Whirlpool-S with the paper's default configuration — with the given
// trace sink attached, and prints the run's headline counters to out.
// It powers whirlbench's -trace flag: collected by an obs.Collector, the full
// event stream (routing decisions, threshold trajectory, queue depth
// samples, match lifecycle) lands in a file for offline analysis of
// the adaptivity the paper only reports in aggregate (Figures 6–7).
func TraceRun(out io.Writer, c Config, sink obs.TraceSink) error {
	c = c.withDefaults()
	e, err := NewEnv(c.Seed, c.bytesFor(Doc1MB), c.Norm)
	if err != nil {
		return err
	}
	cfg := baseConfig(c, e, Q2, core.WhirlpoolS)
	cfg.Trace = sink
	res, err := e.Run(Q2, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %s on %d-byte document, k=%d\n", Q2.Name, e.Bytes, c.K)
	fmt.Fprintf(out, "trace: answers=%d server_ops=%d matches_created=%d pruned=%d took=%s\n",
		len(res.Answers), res.Stats.ServerOps, res.Stats.MatchesCreated,
		res.Stats.Pruned, ms(res.Stats.Duration))
	return nil
}
