#pragma once

/// \file exposition.hpp
/// Metric renderers. The metrics JSON renderer serves both the tools'
/// `--metrics` files (over a recorder's registry) and the embedded HTTP
/// server's `/api/v1/snapshot`. The rest render a `SnapshotPublisher` for
/// the server: Prometheus text exposition format 0.0.4 (`/metrics`), a
/// self-contained HTML status page (`/status`) and the run history. They
/// read only published snapshots and the publisher's mutex-guarded
/// metadata — never the live registry — so they are safe to call from the
/// server thread while a round loop is publishing.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ds::obs {

class SnapshotPublisher;

/// Escapes `s` for use inside a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Metrics JSON: {"context": {...}, "counters": {...}, "gauges": {...},
/// "histograms": {...}}. Counters and gauges are bare integers, so
/// deterministic counters compare bit-identically across runtimes;
/// histograms expose count/sum/min/max/mean.
void write_metrics_json(
    std::ostream& out,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<MetricSnapshot>& metrics);

/// Prometheus text exposition 0.0.4: one `# TYPE` line per family, names
/// mangled `distsplit_<name with [^a-zA-Z0-9_] -> _>`, counters suffixed
/// `_total`, multi-slot metrics labeled `{slot="i"}` (slot = peer rank for
/// the tcp.* counters). Histograms (count/sum/min/max summaries) expose
/// `<name>_count` / `<name>_sum` as a summary family plus `_min`/`_max`
/// gauge families. Synthesized series: `distsplit_rounds_total` (completed
/// rounds of the live run — the series scrapers watch advance),
/// `distsplit_publishes_total` and `distsplit_health`.
void write_prometheus(std::ostream& out, const SnapshotPublisher& pub);

/// `write_metrics_json` over the published snapshot, with the publisher's
/// info plus health, rounds and publish count as context.
void write_snapshot_json(std::ostream& out, const SnapshotPublisher& pub);

/// Self-contained HTML status page: health, run context, rounds, per-phase
/// timing table, per-peer tcp counters, remaining counters/gauges, and the
/// run-history ring.
void write_status_html(std::ostream& out, const SnapshotPublisher& pub);

/// The run-history ring as JSON (`/api/v1/runs`): {"health", "runs": [{
/// "id", "spec", "params_digest", "output_digest", "rounds", "wall_us",
/// "ok"}, ...]} oldest-first. Digests render as 16-digit hex strings (the
/// same form `Result::brief` prints), zero digests as "".
void write_runs_json(std::ostream& out, const SnapshotPublisher& pub);

/// `distsplit_<name>` with every non-[a-zA-Z0-9_] byte mapped to '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name);

}  // namespace ds::obs
