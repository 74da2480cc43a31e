"""Per-layer metrics from the spans and counters of traced CLI processes.

A span's self time is its duration minus the part of that interval its
child spans cover (children on pool threads may overlap, so their union is
taken). A layer's self time is the sum over its spans.
"""

from __future__ import annotations

from collections import defaultdict

NS = 1e-9
SEARCHES = ("multipliers.search_multipliers", "multipliers.brute_force_multipliers")


def covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Spans:
    """Aggregates over the spans of any number of traced processes."""

    def __init__(self, traces: list[dict]):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)  # inclusive seconds
        self.self_time: dict[str, float] = defaultdict(float)
        self.outer: dict[str, float] = defaultdict(float)  # layer time not nested in the layer
        self.counters: dict[str, float] = defaultdict(float)
        self.ga_driver = 0.0  # run_ga time not covered by fitness evaluation
        self.objective_calls = 0
        self.spans = 0
        self.errors = 0
        for trace in traces:
            self._add(trace)

    def _add(self, trace: dict) -> None:
        spans = trace["spans"]
        by_id = {sid: (parent, name) for sid, parent, name, _, _ in spans}
        children: dict[int, list] = defaultdict(list)
        for span in spans:
            children[span[1]].append(span)
        for key, value in trace["counters"].items():
            self.counters[key] += value
        self.spans += len(spans)
        self.errors += trace["errors"]

        for sid, parent, name, start, end in spans:
            kids = children.get(sid, [])
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration * NS
            self.self_time[name] += (duration - covered([(s, e) for *_, s, e in kids], start, end)) * NS
            layer = name.split(".")[0]
            if parent not in by_id or by_id[parent][1].split(".")[0] != layer:
                self.outer[layer] += duration * NS
            if name == "ga.run_ga":
                fitness = [(s, e) for _, _, kid, s, e in kids if kid == "ga.fitness"]
                self.ga_driver += (duration - covered(fitness, start, end)) * NS
            elif name == "diffusion.run_diffusion" and self._under(by_id, parent, SEARCHES):
                self.objective_calls += 1

    @staticmethod
    def _under(by_id: dict, sid: int, names: tuple[str, ...]) -> bool:
        while sid in by_id:
            parent, name = by_id[sid]
            if name in names:
                return True
            sid = parent
        return False

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def mean_us(self, name: str, times: dict) -> float:
        return times[name] / self.calls[name] * 1e6 if self.calls[name] else 0.0

    def metrics(self) -> dict[str, float]:
        c, t = self.counters, self.total
        evaluations = self.calls["ga.fitness"]
        generations = c["ga.generations"]
        searched = t["multipliers.search_multipliers"] + t["multipliers.brute_force_multipliers"]
        return {
            "cli.self_s": self.layer_self("cli"),
            "fitting.fit_fitness_calls": self.calls["fitting.fit_fitness"],
            "fitting.fit_fitness_self_us": self.mean_us("fitting.fit_fitness", self.self_time),
            "fitting.fit_fitness_us": self.mean_us("fitting.fit_fitness", t),
            "diffusion.run_diffusion_calls": self.calls["diffusion.run_diffusion"],
            "diffusion.run_diffusion_us": self.mean_us("diffusion.run_diffusion", t),
            "diffusion.weeks_simulated": c["diffusion.weeks_simulated"],
            "diffusion.matvec_nnz": c["diffusion.matvec_nnz"],
            "diffusion.bytes_computed": c["diffusion.bytes_computed"],
            "ga.generations": generations,
            "ga.evaluations": evaluations,
            "ga.distinct_eval_ratio":
                c["ga.distinct_evaluations"] / evaluations if evaluations else 0.0,
            "ga.driver_ms_per_gen": self.ga_driver / generations * 1e3 if generations else 0.0,
            "ga.mutate_us": self.mean_us("ga.mutate", t),
            "ga.fitness_busy_s": t["ga.fitness"],
            "ga.self_s": self.self_time["ga.run_ga"] + self.self_time["ga.mutate"],
            "multipliers.objective_calls": self.objective_calls,
            "multipliers.search_s": t["multipliers.search_multipliers"],
            "multipliers.brute_force_s": t["multipliers.brute_force_multipliers"],
            "multipliers.subsets_per_s": self.objective_calls / searched if searched else 0.0,
            "synthetic.generate_instance_s": t["synthetic.generate_instance"],
            "synthetic.write_instance_s": t["synthetic.write_instance"],
            "graph.build_contiguity_s": t["graph.build_contiguity_graph"],
            "graph.spatial_graph_s": t["graph.SpatialGraph"],
            "graph.edges": c["graph.edges"],
            "io.read_edge_list_s": t["io.read_edge_list"],
            "io.read_durations_s": t["io.read_durations"],
            "io.read_thresholds_s": t["io.read_thresholds"],
            "io.read_feature_collection_s": t["io.read_feature_collection"],
            "io.read_visit_series_s": t["io.read_visit_series"],
            "io.write_s": t["io.atomic_write"],
            "io.rows_read": c["io.rows_read"],
            "io.bytes_written": c["io.bytes_written"],
            "empirical.compute_recovery_duration_s": t["empirical.compute_recovery_duration"],
            "empirical.zero_one_loss_s": t["empirical.zero_one_loss"],
            "analysis.s": self.outer["analysis"],
            "trace.spans": self.spans,
            "trace.hook_errors": self.errors,
        }
