// perfbench_probe: the in-process half of the end-to-end benchmark.
//
// perfbench/run.py measures the shipped `ivt` binary in child processes
// (untraced). This program is the traced side and the oracle: it calls
// the same public functions the CLI and daemon call, one bench-side span
// per call, and it produces the reference outputs the untraced jobs are
// checked against. Subcommands:
//
//   job        one CLI command of a job, decomposed into public calls.
//              --part run: Pipeline::run (build_state = false) or
//              dist::run_dist, build_state_representation,
//              write_csv_file. --part mine: the same state build, then
//              the three Sec. 4.4 apps as `ivt mine` runs them.
//              --layer-probes 1 then times ColumnarReader::scan,
//              Pipeline::extract_and_reduce and save_trace_columnar on
//              the same input. Prints one JSON object of counts.
//   loadgen    open-loop client for `ivt serve`: sends a schedule of
//              requests at their due times over N connections and writes
//              one result line per request (due, send and done times).
//   serve-ref  in-process answers for sampled serve requests: payload
//              hashes from Pipeline::run / interpret over the same trace,
//              signals and time slice, for byte-identity checks.
//   simulate   one journey of a fixed vehicle, as `ivt simulate` writes
//              it, with the journey seed separate from the vehicle seed
//              (`ivt simulate --seed` draws both).
//
// Spans are kept in memory and written as JSON when the command ends.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/anomaly.hpp"
#include "apps/association_rules.hpp"
#include "apps/transition_graph.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/extend.hpp"
#include "core/interpret.hpp"
#include "core/pipeline.hpp"
#include "core/state_repr.hpp"
#include "core/urel.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/ops.hpp"
#include "dist/sim.hpp"
#include "errors/error.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "signaldb/catalog.hpp"
#include "simnet/datasets.hpp"
#include "simnet/simulator.hpp"
#include "tracefile/binary_format.hpp"

namespace {

using namespace ivt;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

/// In-memory span store; one span per timed public call. Thread-safe so
/// the load generator's connection threads can share it.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int begin(const std::string& name, int parent, std::uint64_t job) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now_ns(), 0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int index) {
    if (index < 0) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }
  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path, std::ios::binary);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}";
    }
    out << "\n]\n";
    if (!out) throw std::runtime_error("cannot write spans: " + path);
  }

 private:
  bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Scoped span around one call.
class Timed {
 public:
  Timed(SpanLog& log, const std::string& name, int parent, std::uint64_t job)
      : log_(log), index_(log.begin(name, parent, job)) {}
  ~Timed() { log_.end(index_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

// ---------------------------------------------------------------- args

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

/// --workers absent = the product default (hardware concurrency); a
/// literal 0 = inline execution, as `ivt --workers=0`.
dataflow::EngineConfig engine_config(const Args& args) {
  dataflow::EngineConfig config;
  if (args.has("workers")) {
    config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
    config.inline_execution = config.workers == 0;
  }
  return config;
}

dataflow::Engine inline_engine() {
  dataflow::EngineConfig config;
  config.inline_execution = true;
  return dataflow::Engine(config);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string render_csv(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_csv(table, out);
  return std::move(out).str();
}

double rss_hwm_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- job

/// Simulated dist nodes, as perfbench/run.py passes `--sim-nodes` to ivt.
constexpr std::size_t kSimNodes = 4;

/// JSON object text built field by field.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonOut& raw(const std::string& key, const std::string& value) {
    text_ += (text_.empty() ? "{" : ",") + std::string("\"") + key +
             "\":" + value;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    return text_.empty() ? "{}" : text_ + "}";
  }

 private:
  std::string text_;
};

std::string stage_json(const core::PipelineResult& result) {
  JsonOut out;
  for (const core::StageTiming& st : result.stage_times) {
    out.num(st.stage, st.wall_ms);
  }
  return out.str();
}

std::string counts_json(const core::PipelineResult& result,
                        const dataflow::Table& state) {
  return JsonOut()
      .num("kb", static_cast<double>(result.kb_rows))
      .num("kpre", static_cast<double>(result.kpre_rows))
      .num("ks", static_cast<double>(result.ks_rows))
      .num("reduced", static_cast<double>(result.reduced_rows))
      .num("krep", static_cast<double>(result.krep_rows))
      .num("state_rows", static_cast<double>(state.num_rows()))
      .num("state_cols", static_cast<double>(state.schema().size()))
      .num("sequences", static_cast<double>(result.sequences.size()))
      .str();
}

/// The three Sec. 4.4 applications with `ivt mine`'s defaults.
std::string run_apps(dataflow::Engine& engine, SpanLog& spans, int parent,
                     std::uint64_t job, const core::PipelineResult& result,
                     const dataflow::Table& state) {
  std::size_t anomalies = 0;
  {
    const Timed t(spans, "apps.anomaly", parent, job);
    apps::AnomalyConfig config;
    config.top_k = 10;
    anomalies = apps::detect_element_anomalies(result.krep, config).size();
  }
  std::string graph_signal;
  for (const core::SequenceReport& report : result.sequences) {
    if (report.classification.branch == core::Branch::Gamma &&
        report.classification.criteria.z_num > 2 &&
        state.schema().contains(report.s_id)) {
      graph_signal = report.s_id;
      break;
    }
  }
  std::size_t rare = 0;
  if (!graph_signal.empty()) {
    const Timed t(spans, "apps.transition", parent, job);
    rare = apps::TransitionGraph::from_column(state, graph_signal)
               .rare_transitions(0.05)
               .size();
  }
  std::vector<std::string> columns;
  for (std::size_t c = 0; c < state.schema().size() && columns.size() < 6;
       ++c) {
    columns.push_back(state.schema().field(c).name);
  }
  dataflow::Table trimmed;
  {
    const Timed t(spans, "dataflow.project", parent, job);
    trimmed = dataflow::project(engine, state, columns);
  }
  std::size_t rules = 0;
  {
    const Timed t(spans, "apps.rules", parent, job);
    apps::MinerConfig miner;
    miner.min_support = 0.1;
    miner.min_confidence = 0.9;
    miner.max_itemset_size = 2;
    rules = apps::mine_rules(trimmed, miner).size();
  }
  return JsonOut()
      .num("anomalies", static_cast<double>(anomalies))
      .num("rare", static_cast<double>(rare))
      .num("rules", static_cast<double>(rules))
      .str();
}

std::uint64_t pool_counter(const char* name) {
  return obs::Registry::instance().snapshot().counter_or(name, 0);
}

/// `ivt run --state`: Algorithm 1 without the state build, then the
/// state build and the CSV sink as their own calls.
void run_part(const Args& args, const signaldb::Catalog& catalog,
              const colstore::ColumnarReader& reader,
              dataflow::Engine& engine, SpanLog& spans, int root,
              std::uint64_t job, JsonOut& out) {
  core::PipelineConfig config;
  config.build_state = false;
  core::PipelineResult result;
  if (args.get("exec", "batch") == "dist") {
    config.exec_mode = core::ExecMode::Dist;
    dist::DistRunConfig dist_config;
    dist_config.trace_path = args.require("trace");
    dist_config.catalog_path = args.require("catalog");
    dist_config.nodes = kSimNodes;
    const Timed t(spans, "dist.run", root, job);
    result = dist::run_dist(catalog, config, reader, dist_config, engine);
  } else {
    const core::Pipeline pipeline(catalog, config);
    const Timed t(spans, "core.pipeline", root, job);
    result = pipeline.run(engine, reader);
  }
  dataflow::Table state;
  {
    const Timed t(spans, "core.state_repr", root, job);
    state = core::build_state_representation(engine, result.krep,
                                             config.state);
  }
  out.num("state_rss_hwm_mb", rss_hwm_mb());
  {
    const Timed t(spans, "dataflow.sink", root, job);
    dataflow::write_csv_file(state, args.require("state-out"));
  }
  out.raw("counts", counts_json(result, state))
      .raw("stages", stage_json(result));
  if (config.exec_mode == core::ExecMode::Dist) {
    const core::DistStats& d = result.dist;
    out.raw("dist",
            JsonOut()
                .num("ranges_total", static_cast<double>(d.ranges_total))
                .num("speculative_launched",
                     static_cast<double>(d.speculative_launched))
                .num("speculative_wins", static_cast<double>(d.speculative_wins))
                .num("results_deduped", static_cast<double>(d.results_deduped))
                .str());
  }
}

/// `ivt mine`: its own pipeline run (cycle-violation extension), the
/// state build, then anomaly ranking, rare transitions and rules.
void mine_part(const signaldb::Catalog& catalog,
               const colstore::ColumnarReader& reader,
               dataflow::Engine& engine, SpanLog& spans, int root,
               std::uint64_t job, JsonOut& out) {
  core::PipelineConfig config;
  config.build_state = false;
  config.extensions = {core::cycle_violation_extension(1.5)};
  const core::Pipeline pipeline(catalog, config);
  core::PipelineResult result;
  {
    const Timed t(spans, "core.pipeline", root, job);
    result = pipeline.run(engine, reader);
  }
  dataflow::Table state;
  {
    const Timed t(spans, "core.state_repr", root, job);
    state = core::build_state_representation(engine, result.krep,
                                             config.state);
  }
  out.num("state_rss_hwm_mb", rss_hwm_mb())
      .raw("mine_counts", counts_json(result, state))
      .raw("mine_stages", stage_json(result))
      .raw("apps", run_apps(engine, spans, root, job, result, state));
}

int cmd_job(const Args& args) {
  const std::string part = args.get("part", "run");
  if (part != "run" && part != "mine") {
    throw std::invalid_argument("--part must be run or mine");
  }
  const bool layer_probes = args.get_int("layer-probes", 0) != 0;
  const auto job = static_cast<std::uint64_t>(args.get_int("job-id", 1));
  SpanLog spans(args.has("spans"));

  const signaldb::Catalog catalog =
      signaldb::load_catalog(args.require("catalog"));
  dataflow::Engine engine(engine_config(args));
  const colstore::ColumnarReader reader(args.require("trace"));
  const std::uint64_t busy0 = pool_counter("pool.busy_ns");
  const std::uint64_t idle0 = pool_counter("pool.idle_ns");

  JsonOut out;
  {
    const Timed root(spans, "job", -1, job);
    if (part == "run") {
      run_part(args, catalog, reader, engine, spans, root.index(), job, out);
    } else {
      mine_part(catalog, reader, engine, spans, root.index(), job, out);
    }
  }
  out.num("pool_busy_ns",
          static_cast<double>(pool_counter("pool.busy_ns") - busy0))
      .num("pool_idle_ns",
           static_cast<double>(pool_counter("pool.idle_ns") - idle0));

  if (layer_probes) {
    // Single-layer calls outside the job: the pushed-down scan, the
    // Fig. 5 scope (lines 3-11) and the columnar writer.
    const Timed root(spans, "layers", -1, job);
    core::PipelineConfig config;
    const core::Pipeline pipeline(catalog, config);
    colstore::ScanStats stats;
    dataflow::Table kb;
    {
      const Timed t(spans, "colstore.scan", root.index(), job);
      kb = reader.scan(core::urel_scan_predicate(pipeline.urel()), engine,
                       &stats);
    }
    core::Pipeline::ReducedResult reduced;
    {
      const Timed t(spans, "core.extract_reduce", root.index(), job);
      reduced = pipeline.extract_and_reduce(engine, kb);
    }
    out.raw("scan",
            JsonOut()
                .num("rows_out", static_cast<double>(kb.num_rows()))
                .num("chunks_total", static_cast<double>(stats.chunks_total))
                .num("chunks_decoded",
                     static_cast<double>(stats.chunks_scanned))
                .num("runs_considered",
                     static_cast<double>(stats.runs_considered))
                .num("runs_pruned", static_cast<double>(stats.runs_pruned))
                .str())
        .raw("extract_reduce",
             JsonOut()
                 .num("ks", static_cast<double>(reduced.ks_rows))
                 .num("reduced", static_cast<double>(reduced.reduced_rows))
                 .str());
    if (args.has("row-trace")) {
      const tracefile::Trace trace =
          tracefile::load_trace(args.require("row-trace"));
      const Timed t(spans, "colstore.pack", root.index(), job);
      colstore::save_trace_columnar(trace, args.require("pack-out"));
    }
  }
  spans.write(args.get("spans"));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------- serve

/// Client socket timeout; a request slower than this counts as failed.
constexpr int kClientTimeoutMs = 30000;

/// One scheduled request (a line of the schedule file, tab-separated):
/// index, due offset in microseconds, op, trace, min_t_ns or "-",
/// max_t_ns or "-", comma-separated signals, top_k.
struct Request {
  std::size_t index = 0;
  std::int64_t due_us = 0;
  std::string op;
  std::string trace;
  bool has_min = false;
  bool has_max = false;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
  std::vector<std::string> signals;
  std::int64_t top_k = 10;
};

std::vector<Request> read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read schedule: " + path);
  std::vector<Request> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = split(line, '\t');
    if (f.size() != 8) throw std::runtime_error("bad schedule line: " + line);
    Request r;
    r.index = std::stoull(f[0]);
    r.due_us = std::stoll(f[1]);
    r.op = f[2];
    r.trace = f[3];
    r.has_min = f[4] != "-";
    r.has_max = f[5] != "-";
    if (r.has_min) r.min_t_ns = std::stoll(f[4]);
    if (r.has_max) r.max_t_ns = std::stoll(f[5]);
    if (!f[6].empty()) r.signals = split(f[6], ',');
    r.top_k = std::stoll(f[7]);
    out.push_back(std::move(r));
  }
  return out;
}

std::string request_json(const Request& r) {
  serve::json::Object body;
  body.add("op", r.op).add("trace", r.trace);
  if (!r.signals.empty()) {
    body.raw("signals", serve::json::render_array(r.signals));
  }
  if (r.has_min) body.add("min_t_ns", r.min_t_ns);
  if (r.has_max) body.add("max_t_ns", r.max_t_ns);
  if (r.op == "mine") body.add("top_k", r.top_k);
  return body.str();
}

/// The part of a mine answer that is checked: (t_ns, signal) per anomaly.
std::string anomaly_digest_text(const std::vector<apps::Anomaly>& list) {
  std::string text;
  for (const apps::Anomaly& a : list) {
    text += std::to_string(a.t_ns) + "|" + a.signal + "\n";
  }
  return text;
}

std::string anomaly_digest_text(const serve::json::Value& body) {
  std::string text;
  const serve::json::Value* list = body.find("anomalies");
  if (list == nullptr || !list->is_array()) return text;
  for (const serve::json::Value& a : list->array()) {
    text += std::to_string(a.get_int("t_ns", 0)) + "|" +
            a.get_string("signal", "") + "\n";
  }
  return text;
}

struct Outcome {
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
  std::string category = "-";
  double t_total_ms = 0.0;
  double scan_ms = 0.0;
  double pipeline_ms = 0.0;
  double serialize_ms = 0.0;
  int cached = -1;  ///< state/mine: tier-2 hit (1) or miss (0)
  std::size_t payload_bytes = 0;
  std::uint64_t hash = 0;
};

double stage_ms(const serve::json::Value& body, const std::string& name) {
  const serve::json::Value* stages = body.find("stages");
  return stages == nullptr ? 0.0 : stages->get_double(name, 0.0);
}

int cmd_loadgen(const Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const std::vector<Request> schedule = read_schedule(args.require("schedule"));
  const auto connections =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("connections", 4)));
  const auto job = static_cast<std::uint64_t>(args.get_int("job-id", 1));
  // Rate-ladder rungs stop early once the backlog is hopeless: a request
  // that could not be sent within this many ms of its due time ends the
  // session, and the unsent rest count as misses ("not_sent").
  const std::int64_t abort_lag_ns = args.get_int("abort-lag-ms", 0) * 1'000'000;
  std::atomic<bool> aborted{false};
  SpanLog spans(args.has("spans"));

  std::vector<Outcome> outcomes(schedule.size());
  std::atomic<std::size_t> next{0};
  // Every connection is opened before the clock starts.
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(
        std::make_unique<serve::Client>(host, port, kClientTimeoutMs));
  }
  const int root = spans.begin("serve.session", -1, job);
  const std::int64_t t0 = now_ns() + 20'000'000;  // 20 ms lead-in
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<serve::Client>& client = clients[c];
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        const Request& r = schedule[i];
        const std::int64_t due = t0 + r.due_us * 1000;
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        Outcome& o = outcomes[i];
        const std::string body = request_json(r);
        o.send_ns = now_ns();
        if (abort_lag_ns > 0 && o.send_ns - due > abort_lag_ns) {
          aborted = true;
        }
        if (aborted) {
          o.category = "not_sent";
          o.done_ns = o.send_ns;
          continue;
        }
        try {
          if (!client) {
            client = std::make_unique<serve::Client>(host, port,
                                                     kClientTimeoutMs);
          }
          const Timed t(spans, "serve.request", root, job);
          const serve::ClientResponse resp = client->request(body);
          o.ok = resp.ok();
          if (!o.ok) o.category = resp.error_category();
          o.t_total_ms = resp.body.get_double("t_total_ms", 0.0);
          o.scan_ms = stage_ms(resp.body, "scan");
          o.pipeline_ms = stage_ms(resp.body, "pipeline");
          o.serialize_ms = stage_ms(resp.body, "serialize");
          if (r.op == "state" || r.op == "mine") {
            o.cached = resp.body.get_bool("cached", false) ? 1 : 0;
          }
          o.payload_bytes = resp.payload.size();
          o.hash = r.op == "mine" ? fnv1a(anomaly_digest_text(resp.body))
                                  : fnv1a(resp.payload);
        } catch (const errors::Error& e) {
          o.ok = false;
          o.category = std::string(errors::to_string(e.category()));
          client.reset();  // the stream may be mid-frame; reconnect
        }
        o.done_ns = now_ns();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  spans.end(root);

  std::ofstream out(args.require("out"), std::ios::binary);
  out << "index\tdue_ns\tsend_ns\tdone_ns\tok\tcategory\tt_total_ms\tscan_ms"
         "\tpipeline_ms\tserialize_ms\tcached\tpayload_bytes\thash\n";
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = outcomes[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%zu\t%lld\t%lld\t%lld\t%d\t%s\t%.6f\t%.6f\t%.6f\t%.6f\t%d"
                  "\t%zu\t%016llx\n",
                  schedule[i].index,
                  static_cast<long long>(schedule[i].due_us * 1000),
                  static_cast<long long>(o.send_ns - t0),
                  static_cast<long long>(o.done_ns - t0), o.ok ? 1 : 0,
                  o.category.c_str(), o.t_total_ms, o.scan_ms,
                  o.pipeline_ms, o.serialize_ms, o.cached, o.payload_bytes,
                  static_cast<unsigned long long>(o.hash));
    out << buf;
  }
  if (!out) throw std::runtime_error("cannot write loadgen results");

  if (args.has("stats-out")) {
    serve::Client client(host, port, kClientTimeoutMs);
    const serve::Frame reply = client.request_raw({"{\"op\":\"stats\"}", ""});
    std::ofstream stats(args.require("stats-out"), std::ios::binary);
    stats << reply.json << "\n";
  }
  spans.write(args.get("spans"));
  return 0;
}

int cmd_serve_ref(const Args& args) {
  const signaldb::Catalog catalog =
      signaldb::load_catalog(args.require("catalog"));
  std::map<std::string, std::unique_ptr<colstore::ColumnarReader>> readers;
  for (const std::string& item : split(args.require("traces"), ',')) {
    const std::size_t eq = item.find('=');
    readers[item.substr(0, eq)] =
        std::make_unique<colstore::ColumnarReader>(item.substr(eq + 1));
  }
  dataflow::Engine engine = inline_engine();
  core::InterpretOptions interpret_options;
  interpret_options.catalog = &catalog;
  for (const Request& r : read_schedule(args.require("requests"))) {
    const colstore::ColumnarReader& reader = *readers.at(r.trace);
    const dataflow::Table urel = r.signals.empty()
                                     ? core::make_full_urel_table(catalog)
                                     : core::make_urel_table(catalog, r.signals);
    colstore::ScanPredicate pred = core::urel_scan_predicate(urel);
    const std::int64_t lo =
        r.has_min ? r.min_t_ns : std::numeric_limits<std::int64_t>::min();
    const std::int64_t hi =
        r.has_max ? r.max_t_ns : std::numeric_limits<std::int64_t>::max();
    std::uint64_t hash = 0;
    if (r.op == "extract") {
      if (r.has_min || r.has_max) {
        pred.has_time_range = true;
        pred.min_t_ns = lo;
        pred.max_t_ns = hi;
      }
      const dataflow::Table kb = reader.scan(pred);
      hash = fnv1a(render_csv(
          core::interpret(engine, kb, urel, interpret_options)));
    } else {
      // state / mine: full-journey pipeline, then slice and project
      // the finished table — the order `ivt serve` documents.
      core::PipelineConfig config;
      config.signals = r.signals;
      const core::Pipeline pipeline(catalog, config);
      const core::PipelineResult result = pipeline.run(engine, reader.scan(pred));
      if (r.op == "mine") {
        apps::AnomalyConfig anomaly_config;
        anomaly_config.top_k = static_cast<std::size_t>(r.top_k);
        hash = fnv1a(anomaly_digest_text(
            apps::detect_element_anomalies(result.krep, anomaly_config)));
      } else {
        dataflow::Table table = result.state;
        if (r.has_min || r.has_max) {
          const std::size_t t_col = table.schema().require("t");
          table = dataflow::filter(
              engine, table, [t_col, lo, hi](const dataflow::RowView& row) {
                if (row.is_null(t_col)) return false;
                const std::int64_t t = row.int64_at(t_col);
                return t >= lo && t <= hi;
              });
        }
        if (!r.signals.empty()) {
          std::vector<std::string> columns{"t"};
          for (const std::string& s : r.signals) {
            if (table.schema().contains(s)) columns.push_back(s);
          }
          table = dataflow::project(engine, table, columns);
        }
        hash = fnv1a(render_csv(table));
      }
    }
    std::printf("%zu\t%016llx\n", r.index,
                static_cast<unsigned long long>(hash));
  }
  return 0;
}

// ---------------------------------------------------------------- simulate

/// The benchmark's vehicle: `ivt simulate`'s default seed.
constexpr std::uint64_t kVehicleSeed = 42;

/// Writes <out>.ivsdb and <out>_J1.ivt: the vehicle (catalog, message
/// periods, ECU behaviour) from kVehicleSeed, one journey of it from
/// --journey-seed. Journeys of one vehicle differ in content, not in
/// size, so benchmark inputs drawn this way do the same amount of work.
/// Prints {"records": N}.
int cmd_simulate(const Args& args) {
  const std::string dataset = args.require("dataset");
  simnet::DatasetSpec spec;
  if (dataset == "SYN") {
    spec = simnet::syn_spec();
  } else if (dataset == "LIG") {
    spec = simnet::lig_spec();
  } else {
    throw std::invalid_argument("--dataset must be SYN or LIG");
  }
  const double scale = std::stod(args.require("scale"));
  const auto journey_seed =
      static_cast<std::uint64_t>(std::stoll(args.require("journey-seed")));
  const std::string out = args.require("out");

  const simnet::VehiclePlan plan = simnet::plan_vehicle(spec, kVehicleSeed);
  const auto duration_ns = static_cast<std::int64_t>(
      static_cast<double>(spec.full_duration_ns) * scale);
  simnet::NetworkSimulator sim =
      simnet::build_simulator(plan, journey_seed, true, duration_ns);
  simnet::SimulationConfig sim_config;
  sim_config.duration_ns = duration_ns;
  sim_config.seed = journey_seed;
  // The fault rates `ivt simulate` injects (simnet::make_fleet).
  sim_config.faults.dropout_rate = 0.0015;
  sim_config.faults.cycle_violation_rate = 0.002;
  sim_config.faults.error_frame_rate = 5e-4;
  const tracefile::Trace trace = sim.run(sim_config, "V001", "J1");
  signaldb::save_catalog(plan.catalog, out + ".ivsdb");
  tracefile::save_trace(trace, out + "_J1.ivt");
  JsonOut json;
  json.num("records", static_cast<double>(trace.size()));
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_probe job|loadgen|serve-ref|simulate "
                 "--key value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "job") return cmd_job(args);
    if (command == "loadgen") return cmd_loadgen(args);
    if (command == "serve-ref") return cmd_serve_ref(args);
    if (command == "simulate") return cmd_simulate(args);
    std::fprintf(stderr, "perfbench_probe: unknown command %s\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", command.c_str(),
                 e.what());
    return 1;
  }
}
