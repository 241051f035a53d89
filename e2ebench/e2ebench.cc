// e2ebench: the measuring half of the end-to-end benchmark (run.py drives it
// and turns its raw samples into metrics).
//
//   e2ebench cold-start   --seed=N --seconds=S --trace=0|1 --out=FILE [--expect=M:CxK]...
//   e2ebench prove-stream --seed=N --seconds=S --trace=0|1 --out=FILE [--expect=M:CxK]...
//   e2ebench serve-mix    --schedule=FILE --daemon=PATH --workdir=DIR
//                         --trace=0|1 --out=FILE [--expect=M:CxK]...
//
// --expect names the layout (advice columns x 2^k rows) the optimizer picks
// for model M on a quiet host. Every compile runs the optimizer as
// CompileModel does; a process whose calibrated HardwareProfile makes it pick
// another layout exits with kLayoutFlipExit before anything is timed.
//
// Every workload checks what it measures: each output is compared with the
// reference executor (RunQuantized) on the same input, each public statement
// with the one that input and output imply, and each artifact is verified.
// Failures are recorded per operation, never aborted on.
//
// With --trace=1 the benchmark records its own spans around each call into a
// layer's public functions (the library's obs::Tracer is never installed), so
// the untraced runs measure the program as users run it. Spans, samples and
// counts go to --out as one JSON document (schema "e2ebench.raw/v1").
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cpu_features.h"
#include "src/base/kernel_stats.h"
#include "src/base/thread_pool.h"
#include "src/compiler/compiler.h"
#include "src/layers/quant_executor.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/optimizer/optimizer.h"
#include "src/serve/client.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"

extern char** environ;

namespace zkml {
namespace {

using obs::Json;

// --- Clock and spans ---

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point kEpoch = SteadyClock::now();

double Now() { return std::chrono::duration<double>(SteadyClock::now() - kEpoch).count(); }

// Spans recorded by the benchmark around layer calls: name, interval, the
// enclosing span, and the operation (proof or request) they belong to.
// Operation -1 marks auxiliary measurements outside the per-operation split.
// Only the main thread records spans.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  int64_t Add(const std::string& name, int64_t op, int64_t parent, double start, double end) {
    if (!on_) return -1;
    spans_.push_back({name, op, parent, start, end});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Sets the end of a span opened with Add(..., start, start).
  void Close(int64_t id, double end) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = end;
  }

  Json ToJson() const {
    Json out = Json::Array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      Json s = Json::Object();
      s.Set("id", static_cast<uint64_t>(i));
      s.Set("parent", r.parent);
      s.Set("name", r.name);
      s.Set("op", r.op);
      s.Set("start", r.start);
      s.Set("end", r.end);
      out.Append(std::move(s));
    }
    return out;
  }

 private:
  struct Rec {
    std::string name;
    int64_t op, parent;
    double start, end;
  };
  bool on_;
  std::vector<Rec> spans_;
};

// Times `fn` and records it as a span; returns fn's result.
template <typename Fn>
auto Timed(SpanLog& log, const std::string& name, int64_t op, int64_t parent, Fn&& fn,
           double* seconds = nullptr) {
  const double start = Now();
  auto result = fn();
  const double end = Now();
  log.Add(name, op, parent, start, end);
  if (seconds != nullptr) *seconds = end - start;
  return result;
}

// --- Inputs, references and checks ---

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFULL;  // keep seeds exact as JSON numbers
}

Tensor<int64_t> MakeInput(const Model& model, uint64_t seed) {
  return QuantizeTensor(SyntheticInput(model, seed), model.quant);
}

std::vector<int64_t> Flat(const Tensor<int64_t>& t) {
  std::vector<int64_t> v(static_cast<size_t>(t.NumElements()));
  for (int64_t i = 0; i < t.NumElements(); ++i) v[static_cast<size_t>(i)] = t.flat(i);
  return v;
}

// The public statement an honest proof of input -> output carries.
void AppendStatement(const std::vector<int64_t>& input, const std::vector<int64_t>& output,
                     std::vector<Fr>* out) {
  for (int64_t x : input) out->push_back(Fr::FromInt64(x));
  for (int64_t y : output) out->push_back(Fr::FromInt64(y));
}

// Collects the reasons one operation failed; empty means it succeeded.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
  std::string Joined() const {
    std::string s;
    for (const std::string& f : failures) s += (s.empty() ? "" : "; ") + f;
    return s;
  }
};

ZkmlOptions BenchOptions() {
  // The envelope zkml_cli and zkml_serve compile with.
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  options.optimizer.min_columns = 8;
  options.optimizer.max_columns = 32;
  options.optimizer.max_k = 15;
  return options;
}

OptimizerOptions BenchOptimizerOptions() {
  OptimizerOptions opt = BenchOptions().optimizer;
  opt.backend = PcsKind::kKzg;
  return opt;
}

// A layout's shape as "<advice columns>x<k>", the form workloads.json uses.
std::string Shape(const PhysicalLayout& layout) {
  return std::to_string(layout.num_columns) + "x" + std::to_string(layout.k);
}

Json KernelsJson(const KernelCounters& k) {
  Json j = Json::Object();
  j.Set("fft_calls", k.fft_calls);
  j.Set("fft_points", k.fft_points);
  j.Set("msm_calls", k.msm_calls);
  j.Set("msm_points", k.msm_points);
  return j;
}

Json StagesJson(const ProverMetrics& m) {
  Json stages = Json::Object();
  for (const ProverStageMetrics& s : m.stages) {
    Json st = Json::Object();
    st.Set("seconds", s.seconds);
    st.Set("kernels", KernelsJson(s.kernels));
    stages.Set(s.name, std::move(st));
  }
  return stages;
}

// Synthesizes one child span per prover stage, laid end to end from the
// CreateProof span's start (the stages run sequentially).
void AddStageSpans(SpanLog& log, const ProverMetrics& m, int64_t op, int64_t parent,
                   double start) {
  double t = start;
  for (const ProverStageMetrics& s : m.stages) {
    log.Add("prover." + s.name, op, parent, t, t + s.seconds);
    t += s.seconds;
  }
}

// Verification is single-threaded and short, and on a shared host one core
// can run a third slower than another for seconds at a time, so which core a
// call lands on would decide the sample. Each timed verification therefore
// runs once on every CPU of the process's affinity mask, each call's time is
// kept, and verify_ms is the median call.
std::vector<int> AffinityCpus(cpu_set_t* mask) {
  CPU_ZERO(mask);
  sched_getaffinity(0, sizeof(*mask), mask);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, mask)) cpus.push_back(c);
  }
  return cpus;
}

// Runs `verify` once pinned to each CPU, appending each call's time (tagged
// with `group`, the model) to `samples`. Returns the first rejection, or the
// last verdict.
template <typename Fn>
VerifyResult VerifyOnEachCpu(const std::string& group, Json* samples, Fn&& verify) {
  cpu_set_t original;
  const std::vector<int> cpus = AffinityCpus(&original);
  VerifyResult verdict;
  for (int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    const double t0 = Now();
    VerifyResult v = verify();
    Json s = Json::Object();
    s.Set("group", group);
    s.Set("seconds", Now() - t0);
    samples->Append(std::move(s));
    if (verdict.ok()) verdict = std::move(v);
  }
  sched_setaffinity(0, sizeof(original), &original);
  return verdict;
}

// Serve-mix artifacts can only be verified after the timed window; they are
// re-verified round-robin for this long.
constexpr double kVerifyBlockSeconds = 3.0;

struct HeldProof {
  std::string group;  // the model, so per-model medians can be taken
  const VerifyingKey* vk = nullptr;
  const Pcs* pcs = nullptr;
  std::vector<Fr> instance;
  std::vector<uint8_t> bytes;
};

uint64_t PairingChecks() {
  return obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks").Value();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

uint64_t PoolBusyNs() {
  const ThreadPoolStats stats = ThreadPool::Global().Stats();
  uint64_t ns = 0;
  // The trailing slot is the helper slot (borrowed threads), not a worker.
  for (size_t i = 0; i + 1 < stats.workers.size(); ++i) ns += stats.workers[i].busy_ns;
  return ns;
}

// Busy shares of the global pool and of the process's CPU time over a window.
struct BusyWindow {
  double t0 = Now();
  uint64_t pool0 = PoolBusyNs();
  double cpu0 = ProcessCpuSeconds();

  void Report(Json* out) const {
    const double wall = Now() - t0;
    const double workers = static_cast<double>(ThreadPool::Global().num_threads());
    const double cpus = static_cast<double>(CpuFeatures::Get().num_cpus);
    out->Set("window_s", wall);
    out->Set("pool_busy_frac", static_cast<double>(PoolBusyNs() - pool0) / 1e9 / (workers * wall));
    out->Set("cpu_busy_frac", (ProcessCpuSeconds() - cpu0) / (cpus * wall));
  }
};

Json HostJson() {
  const CpuFeatures& f = CpuFeatures::Get();
  Json h = Json::Object();
  h.Set("cpu_model", f.cpu_model);
  h.Set("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  h.Set("affinity_cpus", static_cast<uint64_t>(f.num_cpus));
  h.Set("simd", f.Summary());
  h.Set("pool_threads", static_cast<uint64_t>(ThreadPool::Global().num_threads()));
  return h;
}

// --- Layout sweep: optimizer only, every Table 5 zoo model ---

Json LayoutSweep(SpanLog& log) {
  Json sweep = Json::Object();
  for (const Model& model : AllZooModels()) {
    OptimizerResult r = Timed(log, "optimizer.sweep", -1, -1, [&] {
      return OptimizeLayout(model, HardwareProfile::Cached(), BenchOptimizerOptions());
    });
    // Margin: relative predicted-cost gap from the chosen layout to the
    // cheapest plan with a different (k, columns) shape.
    const PhysicalLayout& best = r.best.layout;
    double next = -1;
    for (const RankedLayout& p : r.all) {
      if (p.layout.k == best.k && p.layout.num_columns == best.num_columns) continue;
      if (next < 0 || p.cost.total_seconds < next) next = p.cost.total_seconds;
    }
    Json m = Json::Object();
    m.Set("k", best.k);
    m.Set("columns", best.num_columns);
    m.Set("margin", next < 0 ? 0.0 : (next - r.best.cost.total_seconds) / r.best.cost.total_seconds);
    m.Set("plans", static_cast<uint64_t>(r.plans_evaluated));
    sweep.Set(model.name, std::move(m));
  }
  return sweep;
}

// --- The split path: CompileModel / Prove / Verify, one layer call at a time ---

// What the split returns besides its spans; mirrors CompileModelWithLayout
// and ProveCancellable call for call.
struct SplitSetup {
  PhysicalLayout layout;
  CostEstimate predicted;
  size_t plans = 0;
  std::shared_ptr<Pcs> pcs;
  ProvingKey pk;
  KernelCounters keygen_kernels;
  double search_s = 0, srs_s = 0, circuit_s = 0, keygen_s = 0;
};

SplitSetup SplitCompile(SpanLog& log, const Model& model, int64_t op, int64_t parent) {
  const ZkmlOptions options = BenchOptions();
  SplitSetup s;
  OptimizerResult r = Timed(log, "optimizer.search", op, parent, [&] {
    return OptimizeLayout(model, HardwareProfile::Cached(), BenchOptimizerOptions());
  }, &s.search_s);
  s.layout = r.best.layout;
  s.plans = r.plans_evaluated;
  s.predicted = Timed(log, "optimizer.estimate", op, parent, [&] {
    return EstimateProvingCost(s.layout, HardwareProfile::Cached(), options.backend);
  });
  const size_t n = static_cast<size_t>(1) << s.layout.k;
  s.pcs = Timed(log, "pcs.srs", op, parent,
                [&] { return MakePcsBackend(options.backend, n, options.setup_seed); }, &s.srs_s);
  BuiltCircuit zero = Timed(log, "compiler.circuit", op, parent, [&] {
    return BuildCircuit(model, s.layout, Tensor<int64_t>(model.input_shape));
  }, &s.circuit_s);
  const KernelCounters before = kernelstats::Capture();
  s.pk = Timed(log, "plonk.keygen", op, parent, [&] {
    return Keygen(zero.builder->cs(), zero.builder->assignment(), *s.pcs, s.layout.k);
  }, &s.keygen_s);
  s.keygen_kernels = kernelstats::Capture() - before;
  s.pk.vk.num_instance_rows = zero.num_instance_rows;
  return s;
}

struct SplitProof {
  std::vector<uint8_t> bytes;
  std::vector<Fr> instance;
  Tensor<int64_t> output_q;
  ProverMetrics metrics;
  double witness_s = 0, prove_s = 0, verify_s = 0;
  bool verified = false;
};

SplitProof SplitProveVerify(SpanLog& log, const Model& model, const SplitSetup& s,
                            const Tensor<int64_t>& input, int64_t op, int64_t parent) {
  SplitProof p;
  BuiltCircuit built = Timed(log, "compiler.witness", op, parent,
                             [&] { return BuildCircuit(model, s.layout, input); }, &p.witness_s);
  p.output_q = built.output_q;
  const std::vector<Fr>& inst = built.builder->assignment().instance()[0];
  p.instance.assign(inst.begin(), inst.begin() + built.num_instance_rows);
  const double prove_start = Now();
  p.bytes = CreateProof(s.pk, *s.pcs, built.builder->assignment(), &p.metrics);
  p.prove_s = Now() - prove_start;
  const int64_t prove_span = log.Add("plonk.prove", op, parent, prove_start, prove_start + p.prove_s);
  AddStageSpans(log, p.metrics, op, prove_span, prove_start);
  VerifyResult v = Timed(log, "plonk.verify", op, parent, [&] {
    return VerifyProof(s.pk.vk, *s.pcs, {p.instance}, p.bytes);
  }, &p.verify_s);
  p.verified = v.ok() && p.instance.size() == s.pk.vk.num_instance_rows;
  return p;
}

// --- cold-start ---

struct Flags {
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out, schedule, daemon, workdir;
  std::map<std::string, std::string> expect;  // model -> Shape()
};

// Set-ups per run of prove-stream and serve-mix; setup_s is their median.
constexpr int kSetups = 2;

// The exit code of a process whose optimizer picked another layout than
// --expect names (see the header).
constexpr int kLayoutFlipExit = 3;

// Runs the optimizer, as CompileModel does, for every model --expect names.
// Returns false (after saying why) when a pick differs.
bool PicksAsExpected(const Flags& flags) {
  bool ok = true;
  for (const auto& [name, want] : flags.expect) {
    const std::string got = Shape(
        OptimizeLayout(MakeZooModel(name), HardwareProfile::Cached(), BenchOptimizerOptions())
            .best.layout);
    if (got != want) {
      std::fprintf(stderr, "e2ebench: the optimizer picked %s for %s; the benchmark times %s\n",
                   got.c_str(), name.c_str(), want.c_str());
      ok = false;
    }
  }
  return ok;
}

Json ColdStart(const Flags& flags, SpanLog& log, Json* doc) {
  const std::vector<Model> models = {MakeZooModel("mnist"), MakeZooModel("dlrm")};
  std::vector<Tensor<int64_t>> inputs;
  std::vector<std::vector<int64_t>> refs;
  for (size_t m = 0; m < models.size(); ++m) {
    inputs.push_back(MakeInput(models[m], DeriveSeed(flags.seed, 1, m)));
    refs.push_back(Flat(RunQuantized(models[m], inputs[m])));
  }
  std::vector<std::vector<uint8_t>> first_bytes(models.size());
  Json verify_samples = Json::Array();

  if (log.on()) {
    // One Lagrange-basis build on a fresh cache at each model's n, measured
    // apart from keygen (which also builds it).
    Json lagrange = Json::Object();
    for (const Model& model : models) {
      const int k =
          OptimizeLayout(model, HardwareProfile::Cached(), BenchOptimizerOptions()).best.layout.k;
      const size_t n = static_cast<size_t>(1) << k;
      std::shared_ptr<Pcs> pcs = MakePcsBackend(PcsKind::kKzg, n, BenchOptions().setup_seed);
      const auto& powers = dynamic_cast<const KzgPcs&>(*pcs).setup().powers;
      LagrangeBasisCache cache;
      double secs = 0;
      Timed(log, "pcs.lagrange_basis", -1, -1, [&] { return cache.Get(powers, n).size(); }, &secs);
      lagrange.Set(model.name, secs);
    }
    doc->Set("lagrange_basis_s", std::move(lagrange));
  }

  Json ops = Json::Array();
  int64_t next_op = 0;
  const double t_begin = Now();
  BusyWindow busy;
  for (int rep = 0; rep < 3 || Now() - t_begin < flags.seconds; ++rep) {
    for (size_t m = 0; m < models.size(); ++m) {
      const Model& model = models[m];
      Json op = Json::Object();
      op.Set("rep", rep);
      op.Set("model", model.name);
      Checks checks;

      // The facade, untraced: what a `zkml_cli prove` + `verify` user runs.
      auto facade = [&] {
        const double t0 = Now();
        CompiledModel compiled = CompileModel(model, BenchOptions());
        const double t1 = Now();
        op.Set("optimizer_pick", Shape(compiled.layout));
        ZkmlProof proof = Prove(compiled, inputs[m]);
        const double t2 = Now();
        VerifyResult v = VerifyDetailed(compiled.pk.vk, *compiled.pcs, proof.instance, proof.bytes);
        const double t3 = Now();
        op.Set("setup_s", t1 - t0);
        op.Set("prove_s", t2 - t1);
        op.Set("verify_s", t3 - t2);
        op.Set("wall_s", t3 - t0);
        v = VerifyOnEachCpu(model.name, &verify_samples, [&] {
          return VerifyDetailed(compiled.pk.vk, *compiled.pcs, proof.instance, proof.bytes);
        });
        op.Set("proof_bytes", static_cast<uint64_t>(proof.bytes.size()));
        op.Set("create_proof_s", proof.prover_metrics.total_seconds);
        op.Set("predicted_s", compiled.predicted_cost.total_seconds);
        op.Set("k", compiled.layout.k);
        op.Set("columns", compiled.layout.num_columns);
        std::vector<Fr> expected;
        AppendStatement(Flat(inputs[m]), refs[m], &expected);
        checks.Expect(v.ok(), "verify: " + v.ToString());
        checks.Expect(Flat(proof.output_q) == refs[m], "output differs from RunQuantized");
        checks.Expect(proof.instance == expected, "statement differs from input/output");
        if (first_bytes[m].empty()) first_bytes[m] = proof.bytes;
        checks.Expect(proof.bytes == first_bytes[m], "proof bytes differ from repetition 0");
      };
      // The same work one layer call at a time, traced.
      auto split = [&] {
        const int64_t id = next_op++;
        const double t0 = Now();
        const int64_t root = log.Add("zkml.cold", id, -1, t0, t0);  // end patched below
        SplitSetup s = SplitCompile(log, model, id, root);
        SplitProof p = SplitProveVerify(log, model, s, inputs[m], id, root);
        const double t1 = Now();
        log.Close(root, t1);
        op.Set("split_wall_s", t1 - t0);
        op.Set("plans", static_cast<uint64_t>(s.plans));
        op.Set("search_s", s.search_s);
        op.Set("srs_s", s.srs_s);
        op.Set("circuit_s", s.circuit_s);
        op.Set("keygen_s", s.keygen_s);
        op.Set("keygen_kernels", KernelsJson(s.keygen_kernels));
        op.Set("witness_s", p.witness_s);
        op.Set("split_prove_s", p.prove_s);
        op.Set("split_verify_s", p.verify_s);
        op.Set("stages", StagesJson(p.metrics));
        checks.Expect(p.verified, "split-path proof does not verify");
        checks.Expect(Flat(p.output_q) == refs[m], "split-path output differs from RunQuantized");
        if (first_bytes[m].empty()) first_bytes[m] = p.bytes;
        checks.Expect(p.bytes == first_bytes[m], "split-path proof bytes differ from the facade's");
      };
      if (!log.on()) {
        facade();
      } else if (rep % 2 == 0) {
        facade();
        split();
      } else {
        split();
        facade();
      }
      op.Set("ok", checks.ok());
      op.Set("error", checks.Joined());
      ops.Append(std::move(op));
    }
  }
  Json window = Json::Object();
  busy.Report(&window);
  doc->Set("window", std::move(window));
  doc->Set("verify_samples", std::move(verify_samples));
  return ops;
}

// --- prove-stream ---

Json ProveStream(const Flags& flags, SpanLog& log, Json* doc) {
  const Model model = MakeZooModel("resnet18");

  // Set-up, several times; the last compiled model serves the stream.
  Json setups = Json::Array();
  CompiledModel compiled;
  for (int s = 0; s < kSetups; ++s) {
    Json rec = Json::Object();
    // A traced run splits its first set-up into layer calls instead of
    // timing the facade; the remaining set-ups stay untraced.
    if (log.on() && s == 0) {
      const double t0 = Now();
      const int64_t root = log.Add("zkml.setup", -1, -1, t0, t0);
      SplitSetup split = SplitCompile(log, model, -1, root);
      log.Close(root, Now());
      rec.Set("plans", static_cast<uint64_t>(split.plans));
      rec.Set("search_s", split.search_s);
      rec.Set("srs_s", split.srs_s);
      rec.Set("circuit_s", split.circuit_s);
      rec.Set("keygen_s", split.keygen_s);
      rec.Set("keygen_kernels", KernelsJson(split.keygen_kernels));
    } else {
      const double t0 = Now();
      compiled = CompileModel(model, BenchOptions());
      rec.Set("setup_s", Now() - t0);
      rec.Set("optimizer_pick", Shape(compiled.layout));
    }
    setups.Append(std::move(rec));
  }
  doc->Set("setups", std::move(setups));
  doc->Set("predicted_s", compiled.predicted_cost.total_seconds);
  doc->Set("k", compiled.layout.k);
  doc->Set("columns", compiled.layout.num_columns);

  SplitSetup traced_setup;  // the facade's keys, reused by the traced prove path
  traced_setup.layout = compiled.layout;
  traced_setup.pcs = compiled.pcs;
  traced_setup.pk = compiled.pk;

  std::vector<HeldProof> held;
  Json verify_samples = Json::Array();
  Json ops = Json::Array();
  const double t_begin = Now();
  BusyWindow busy;
  for (int64_t i = 0; i < 3 || Now() - t_begin < flags.seconds; ++i) {
    const uint64_t input_seed = DeriveSeed(flags.seed, 2, static_cast<uint64_t>(i));
    const Tensor<int64_t> input = MakeInput(model, input_seed);
    Json op = Json::Object();
    op.Set("input_seed", input_seed);
    Checks checks;
    const double t0 = Now();
    std::vector<uint8_t> bytes;
    std::vector<Fr> instance;
    Tensor<int64_t> output;
    if (log.on() && i % 4 != 0) {
      const int64_t root = log.Add("zkml.prove", i, -1, t0, t0);
      SplitProof p = SplitProveVerify(log, model, traced_setup, input, i, root);
      log.Close(root, Now());
      op.Set("witness_s", p.witness_s);
      op.Set("prove_s", p.witness_s + p.prove_s);
      op.Set("create_proof_s", p.prove_s);
      op.Set("verify_s", p.verify_s);
      op.Set("wall_s", Now() - t0);
      op.Set("stages", StagesJson(p.metrics));
      checks.Expect(p.verified, "proof does not verify");
      bytes = std::move(p.bytes);
      instance = std::move(p.instance);
      output = p.output_q;
    } else {
      // Untraced facade calls; in a traced run every fourth proof takes this
      // path so the run also measures the untraced prove for the overhead.
      ZkmlProof proof = Prove(compiled, input);
      const double t1 = Now();
      VerifyResult v = VerifyDetailed(compiled.pk.vk, *compiled.pcs, proof.instance, proof.bytes);
      op.Set("untraced", true);
      op.Set("prove_s", t1 - t0);
      op.Set("create_proof_s", proof.prover_metrics.total_seconds);
      op.Set("verify_s", Now() - t1);
      op.Set("wall_s", Now() - t0);
      v = VerifyOnEachCpu(model.name, &verify_samples, [&] {
        return VerifyDetailed(compiled.pk.vk, *compiled.pcs, proof.instance, proof.bytes);
      });
      op.Set("stages", StagesJson(proof.prover_metrics));
      checks.Expect(v.ok(), "verify: " + v.ToString());
      bytes = std::move(proof.bytes);
      instance = std::move(proof.instance);
      output = proof.output_q;
    }
    op.Set("proof_bytes", static_cast<uint64_t>(bytes.size()));
    const std::vector<int64_t> ref = Flat(RunQuantized(model, input));
    std::vector<Fr> expected;
    AppendStatement(Flat(input), ref, &expected);
    checks.Expect(Flat(output) == ref, "output differs from RunQuantized");
    checks.Expect(instance == expected, "statement differs from input/output");
    op.Set("ok", checks.ok());
    op.Set("error", checks.Joined());
    ops.Append(std::move(op));
    held.push_back({model.name, &compiled.pk.vk, compiled.pcs.get(), std::move(instance),
                    std::move(bytes)});
  }
  Json window = Json::Object();
  busy.Report(&window);
  doc->Set("window", std::move(window));

  // One cross-proof batch verification over every proof of the run.
  std::vector<CrossProofClaim> claims;
  for (const HeldProof& h : held) claims.push_back({h.vk, h.pcs, &h.instance, &h.bytes});
  const uint64_t pairings0 = PairingChecks();
  double batch_s = 0;
  CrossProofVerdict verdict =
      Timed(log, "plonk.verify_batched", -1, -1, [&] { return VerifyProofsBatched(claims); },
            &batch_s);
  Json batch = Json::Object();
  batch.Set("proofs", static_cast<uint64_t>(claims.size()));
  batch.Set("seconds", batch_s);
  batch.Set("pairing_checks", PairingChecks() - pairings0);
  batch.Set("ok", verdict.ok());
  batch.Set("error", verdict.ok() ? "" : verdict.status.ToString());
  doc->Set("batch_verify", std::move(batch));
  doc->Set("verify_samples", std::move(verify_samples));
  return ops;
}

// --- serve-mix ---

// A daemon calibrates its own HardwareProfile, so it can pick other layouts
// than the benchmark's keys (see the header). Up to this many daemons are
// started to get kSetups that run the keys' layouts.
constexpr int kMaxDaemonStarts = 4;

// A zkml_serve child process. Stop() sends SIGTERM and waits for it to exit.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts `path args...` with stdout and stderr appended to `log_path`.
  Status Start(const std::string& path, const std::vector<std::string>& args,
               const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return IoError("cannot start " + path);
    }
    return Status::Ok();
  }
  // Peak resident set (VmHWM) of the daemon so far, in kB.
  uint64_t PeakRssKb() const { return ProcStatusKb("VmHWM:"); }
  // utime + stime of the daemon, in seconds.
  double CpuSeconds() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(f, line);
    const size_t close = line.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; rest >> field; ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) {
        stime = std::strtod(field.c_str(), nullptr);
        break;
      }
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  int Stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }
  ~Daemon() { Stop(); }

 private:
  uint64_t ProcStatusKb(const std::string& key) const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind(key, 0) == 0) return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
    return 0;
  }
  pid_t pid_ = -1;
};

StatusOr<uint16_t> WaitForPort(const std::string& port_file, double timeout_s) {
  const double until = Now() + timeout_s;
  while (Now() < until) {
    std::ifstream f(port_file);
    unsigned port = 0;
    if (f >> port && port > 0) return static_cast<uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return IoError("daemon did not write " + port_file);
}

struct Request {
  double t = 0;  // scheduled send, seconds after the window opens
  std::string kind;
  std::vector<uint64_t> seeds;  // one input seed per inference
};

std::vector<Request> ParseRequests(const Json& list) {
  std::vector<Request> out;
  for (const Json& r : list.items()) {
    Request req;
    req.t = r.Find("t")->AsDouble();
    req.kind = r.Find("kind")->AsString();
    for (const Json& s : r.Find("seeds")->items()) req.seeds.push_back(s.AsUint());
    out.push_back(std::move(req));
  }
  return out;
}

struct Reply {
  double t_sched = 0, t_send = 0, t_done = 0;
  bool transport_ok = false;
  serve::ZkmlClient::ProveOutcome outcome;
  std::string transport_error;
};

// The shard count of sharded requests.
constexpr uint32_t kShards = 2;

serve::ProveRequest WireRequest(const std::string& model_text, const Model& model,
                                const Request& r) {
  serve::ProveRequest req;
  req.model_text = model_text;
  req.backend = 0;
  for (uint64_t seed : r.seeds) {
    const std::vector<int64_t> in = Flat(MakeInput(model, seed));
    req.input.insert(req.input.end(), in.begin(), in.end());
  }
  req.batch = r.kind == "batch" ? static_cast<uint32_t>(r.seeds.size()) : 0;
  req.shards = r.kind == "sharded" ? kShards : 0;
  return req;
}

constexpr int kRequestTimeoutMs = 120000;

// Sends `requests` open-loop over `connections` client connections: each
// connection takes the next unsent request, sleeps until its slot and sends
// it. Times are on the benchmark clock; slot i is due at t_open + t_i.
std::vector<Reply> RunOpenLoop(uint16_t port, const std::string& model_text, const Model& model,
                               const std::vector<Request>& requests, int connections,
                               double t_open) {
  std::vector<serve::ProveRequest> wire;
  for (const Request& r : requests) wire.push_back(WireRequest(model_text, model, r));
  std::vector<Reply> replies(requests.size());
  std::atomic<size_t> next{0};
  auto sender = [&] {
    StatusOr<serve::ZkmlClient> client = serve::ZkmlClient::Connect("127.0.0.1", port, 5000);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      Reply& reply = replies[i];
      reply.t_sched = t_open + requests[i].t;
      std::this_thread::sleep_until(
          kEpoch + std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double>(reply.t_sched)));
      reply.t_send = Now();
      if (!client.ok()) {
        reply.transport_error = client.status().ToString();
        reply.t_done = Now();
        client = serve::ZkmlClient::Connect("127.0.0.1", port, 5000);
        continue;
      }
      StatusOr<serve::ZkmlClient::ProveOutcome> result =
          client->Prove(wire[i], static_cast<uint64_t>(i) + 1, kRequestTimeoutMs);
      reply.t_done = Now();
      if (result.ok()) {
        reply.transport_ok = true;
        reply.outcome = std::move(*result);
      } else {
        reply.transport_error = result.status().ToString();
        client = serve::ZkmlClient::Connect("127.0.0.1", port, 5000);
      }
    }
  };
  // The calling thread is one of the senders: the load is one process with
  // `connections` threads.
  std::vector<std::thread> threads;
  for (int c = 1; c < connections; ++c) threads.emplace_back(sender);
  sender();
  for (std::thread& t : threads) t.join();
  return replies;
}

// Verifier-side keys for the three request kinds, compiled as the daemon
// compiles them (CompileModel, CompileBatched, CompileSharded with the same
// options), so its artifacts verify against independently generated keys.
struct ServeKeys {
  CompiledModel single;
  CompiledBatchedModel batched;
  CompiledShardedModel sharded;
};

ServeKeys CompileServeKeys(const Model& model, size_t batch, Json* layouts) {
  ServeKeys keys;
  keys.single = CompileModel(model, BenchOptions());
  keys.batched = CompileBatched(model, batch, BenchOptions()).value();
  keys.sharded = CompileSharded(model, kShards, BenchOptions()).value();
  layouts->Set("single", Shape(keys.single.layout));
  layouts->Set("batch", Shape(keys.batched.compiled.layout));
  Json shards = Json::Array();
  for (const auto& shard : keys.sharded.shards) shards.Append(Shape(shard->layout));
  layouts->Set("sharded", std::move(shards));
  return keys;
}

// The artifact size of each request kind at the keys' layouts, from one
// proof of each of `warmups` made here. The size follows from the layout's
// columns, so a daemon whose artifact has another size runs another layout.
std::map<std::string, size_t> ArtifactSizes(const ServeKeys& keys, const Model& model,
                                            const std::vector<Request>& warmups) {
  std::map<std::string, size_t> sizes;
  for (const Request& r : warmups) {
    std::vector<Tensor<int64_t>> inputs;
    for (uint64_t seed : r.seeds) inputs.push_back(MakeInput(model, seed));
    if (r.kind == "single") {
      sizes[r.kind] = Prove(keys.single, inputs[0]).bytes.size();
    } else if (r.kind == "batch") {
      sizes[r.kind] = EncodeBatchedProof(CreateBatchedProof(keys.batched, inputs).value()).size();
    } else {
      sizes[r.kind] = EncodeShardedProof(CreateShardedProof(keys.sharded, inputs[0]).value()).size();
    }
  }
  return sizes;
}

// The batch size of the schedule's batch requests (1 if it has none).
size_t BatchSize(const std::vector<Request>& requests) {
  for (const Request& r : requests) {
    if (r.kind == "batch") return r.seeds.size();
  }
  return 1;
}

// Checks one reply: protocol outcome, outputs against the reference
// executor, statement, and the artifact's verification.
void CheckReply(const ServeKeys& keys, const Model& model, const Request& r, const Reply& reply,
                Checks* checks, double* verify_s) {
  if (!reply.transport_ok) {
    checks->Expect(false, "transport: " + reply.transport_error);
    return;
  }
  if (!reply.outcome.ok) {
    checks->Expect(false, "rejected: " + reply.outcome.error.ToString());
    return;
  }
  const serve::ProveResponse& resp = reply.outcome.response;
  std::vector<int64_t> expected_output;
  std::vector<Fr> statement;
  for (uint64_t seed : r.seeds) {
    const Tensor<int64_t> input = MakeInput(model, seed);
    const std::vector<int64_t> ref = Flat(RunQuantized(model, input));
    expected_output.insert(expected_output.end(), ref.begin(), ref.end());
    AppendStatement(Flat(input), ref, &statement);
  }
  checks->Expect(resp.output == expected_output, "output differs from RunQuantized");
  checks->Expect(resp.instance == statement, "statement differs from input/output");
  if (r.kind == "single") {
    checks->Expect(resp.batch <= 1 && resp.shards <= 1, "single request answered as batch/shards");
  } else if (r.kind == "batch") {
    checks->Expect(resp.batch == r.seeds.size(), "batch size differs from the request");
  } else {
    checks->Expect(resp.shards == kShards, "shard count differs from the request");
  }
  const double t0 = Now();
  VerifyResult v;
  if (r.kind == "single") {
    v = VerifyDetailed(keys.single.pk.vk, *keys.single.pcs, statement, resp.proof);
  } else if (r.kind == "batch") {
    v = VerifyBatchedDetailed(keys.batched, statement, resp.proof);
  } else {
    v = VerifySharded(keys.sharded, statement, resp.proof);
  }
  *verify_s = Now() - t0;
  checks->Expect(v.ok(), "verify: " + v.ToString());
}

Json ServeMix(const Flags& flags, SpanLog& log, Json* doc) {
  std::ifstream f(flags.schedule);
  std::stringstream text;
  text << f.rdbuf();
  StatusOr<Json> schedule = Json::Parse(text.str());
  ZKML_CHECK_MSG(schedule.ok(), ("bad schedule: " + flags.schedule).c_str());
  const Model model = MakeZooModel(schedule->Find("model")->AsString());
  const std::string model_text = SerializeModel(model);
  doc->Set("model", model.name);
  const std::vector<Request> warmups = ParseRequests(*schedule->Find("warmup"));
  const std::vector<Request> requests = ParseRequests(*schedule->Find("requests"));
  const int connections = static_cast<int>(schedule->Find("connections")->AsInt());

  // Keys first: each daemon's warm-up replies are checked against them.
  Json layouts = Json::Object();
  const ServeKeys keys = CompileServeKeys(model, BatchSize(warmups), &layouts);
  const std::map<std::string, size_t> sizes = ArtifactSizes(keys, model, warmups);
  doc->Set("layouts", std::move(layouts));
  doc->Set("predicted_s", keys.single.predicted_cost.total_seconds);

  // Per-job run reports carry the prover stages of the traced run. The daemon
  // writes each before it replies, so untraced runs do not ask for them.
  const std::string reports_dir = flags.workdir + "/reports";
  Json ops = Json::Array();
  Json setups = Json::Array();
  Daemon daemon;
  uint16_t port = 0;
  int accepted = 0;
  for (int start = 0; accepted < kSetups && start < kMaxDaemonStarts; ++start) {
    daemon.Stop();
    const std::string port_file = flags.workdir + "/port";
    std::remove(port_file.c_str());
    std::vector<std::string> args = {"--port=0", "--workers=2", "--port-file=" + port_file};
    if (log.on()) {
      std::filesystem::remove_all(reports_dir);  // only the serving daemon's stay
      std::filesystem::create_directories(reports_dir);
      args.push_back("--report-dir=" + reports_dir);
    }
    // Set-up: daemon start until every request kind has been answered once
    // (compiled and cached).
    const double t0 = Now();
    Status started = daemon.Start(flags.daemon, args, flags.workdir + "/daemon.log");
    ZKML_CHECK_MSG(started.ok(), started.ToString().c_str());
    StatusOr<uint16_t> p = WaitForPort(port_file, 60);
    ZKML_CHECK_MSG(p.ok(), p.status().ToString().c_str());
    port = *p;
    const std::vector<Reply> warm_replies = RunOpenLoop(port, model_text, model, warmups, 1, Now());
    const double setup_s = Now() - t0;
    // One checked operation per daemon: its warm-up replies. A daemon that
    // runs other layouts is replaced, and counts only if it is the last.
    Checks checks;
    bool flipped = false;
    for (size_t i = 0; i < warmups.size(); ++i) {
      const Reply& reply = warm_replies[i];
      flipped = flipped || (reply.transport_ok && reply.outcome.ok &&
                            reply.outcome.response.proof.size() != sizes.at(warmups[i].kind));
      double verify_s = 0;
      CheckReply(keys, model, warmups[i], reply, &checks, &verify_s);
    }
    checks.Expect(!flipped, "the daemon's artifacts differ in size from the benchmark's own: "
                            "it runs other layouts");
    if (!flipped) ++accepted;
    Json rec = Json::Object();
    rec.Set("setup_s", setup_s);
    rec.Set("layout_flip", flipped);
    rec.Set("ok", checks.ok());
    rec.Set("error", checks.Joined());
    setups.Append(std::move(rec));
  }
  doc->Set("setups", std::move(setups));

  const double daemon_cpu0 = daemon.CpuSeconds();
  const double t_open = Now() + 0.05;
  std::vector<Reply> replies = RunOpenLoop(port, model_text, model, requests, connections, t_open);
  const double t_close = Now();
  Json window = Json::Object();
  window.Set("window_s", t_close - t_open);
  window.Set("cpu_busy_frac", (daemon.CpuSeconds() - daemon_cpu0) /
                                  (static_cast<double>(CpuFeatures::Get().num_cpus) *
                                   (t_close - t_open)));
  doc->Set("window", std::move(window));
  doc->Set("daemon_peak_rss_kb", daemon.PeakRssKb());
  doc->Set("daemon_exit", daemon.Stop());

  // Everything below runs after the timed window: outputs and verification.
  if (log.on()) {
    Json reports = Json::Array();
    for (const auto& entry : std::filesystem::directory_iterator(reports_dir)) {
      std::ifstream rf(entry.path());
      std::stringstream body;
      body << rf.rdbuf();
      StatusOr<Json> parsed = Json::Parse(body.str());
      if (parsed.ok()) reports.Append(std::move(*parsed));
    }
    doc->Set("run_reports", std::move(reports));
  }

  auto record = [&](const Request& r, const Reply& reply, int64_t index) {
    Checks checks;
    double verify_s = 0;
    CheckReply(keys, model, r, reply, &checks, &verify_s);
    Json op = Json::Object();
    op.Set("index", index);
    op.Set("kind", r.kind);
    op.Set("inferences", static_cast<uint64_t>(r.seeds.size()));
    op.Set("t_sched", reply.t_sched);
    op.Set("t_send", reply.t_send);
    op.Set("t_done", reply.t_done);
    op.Set("ok", checks.ok());
    op.Set("error", checks.Joined());
    op.Set("verify_s", verify_s);
    if (reply.transport_ok && !reply.outcome.ok) {
      op.Set("error_code", static_cast<uint64_t>(reply.outcome.error.code));
      const serve::WireErrorCode code = reply.outcome.error.code;
      op.Set("shed", code == serve::WireErrorCode::kOverloaded);
      op.Set("deadline_exceeded", code == serve::WireErrorCode::kDeadlineExceeded);
    }
    if (reply.transport_ok && reply.outcome.ok) {
      const serve::ProveResponse& resp = reply.outcome.response;
      op.Set("queue_s", static_cast<double>(resp.queue_micros) * 1e-6);
      op.Set("prove_s", static_cast<double>(resp.prove_micros) * 1e-6);
      op.Set("cache_hit", resp.cache_hit != 0);
      op.Set("proof_bytes", static_cast<uint64_t>(resp.proof.size()));
    }
    ops.Append(std::move(op));
  };
  std::vector<HeldProof> singles;
  for (size_t i = 0; i < requests.size(); ++i) {
    record(requests[i], replies[i], static_cast<int64_t>(i));
    const serve::ProveResponse& resp = replies[i].outcome.response;
    if (requests[i].kind == "single" && replies[i].transport_ok && replies[i].outcome.ok) {
      singles.push_back({model.name, &keys.single.pk.vk, keys.single.pcs.get(), resp.instance,
                         resp.proof});
    }
  }
  bool block_ok = true;
  Json verify_samples = Json::Array();
  const double until = Now() + kVerifyBlockSeconds;
  for (size_t i = 0; !singles.empty() && (i < singles.size() || Now() < until); ++i) {
    const HeldProof& h = singles[i % singles.size()];
    block_ok = VerifyOnEachCpu(h.group, &verify_samples, [&] {
      return VerifyDetailed(*h.vk, *h.pcs, h.instance, h.bytes);
    }).ok() && block_ok;
  }
  doc->Set("verify_samples", std::move(verify_samples));
  doc->Set("verify_block_ok", block_ok);

  return ops;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2ebench cold-start|prove-stream|serve-mix [--flags]\n");
    return 1;
  }
  const std::string workload = argv[1];
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "seed", &v)) {
      flags.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &v)) {
      flags.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &v)) {
      flags.trace = v == "1";
    } else if (ParseFlag(arg, "out", &v)) {
      flags.out = v;
    } else if (ParseFlag(arg, "schedule", &v)) {
      flags.schedule = v;
    } else if (ParseFlag(arg, "daemon", &v)) {
      flags.daemon = v;
    } else if (ParseFlag(arg, "workdir", &v)) {
      flags.workdir = v;
    } else if (ParseFlag(arg, "expect", &v)) {
      const size_t colon = v.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bad --expect=%s (want MODEL:COLUMNSxK)\n", v.c_str());
        return 1;
      }
      flags.expect[v.substr(0, colon)] = v.substr(colon + 1);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  if (flags.out.empty() || (workload != "serve-mix" && flags.seconds <= 0)) {
    std::fprintf(stderr, "--out and --seconds are required\n");
    return 1;
  }

  SpanLog log(flags.trace);
  Json doc = Json::Object();
  doc.Set("schema", "e2ebench.raw/v1");
  doc.Set("workload", workload);
  doc.Set("seed", flags.seed);
  doc.Set("trace", flags.trace);
  doc.Set("host", HostJson());
  double calibrate_s = 0;
  Timed(log, "optimizer.calibrate", -1, -1, [] { return &HardwareProfile::Cached(); },
        &calibrate_s);
  doc.Set("calibrate_s", calibrate_s);
  if (!PicksAsExpected(flags)) return kLayoutFlipExit;
  Json ops;
  if (workload == "cold-start") {
    ops = ColdStart(flags, log, &doc);
  } else if (workload == "prove-stream") {
    ops = ProveStream(flags, log, &doc);
  } else if (workload == "serve-mix") {
    ops = ServeMix(flags, log, &doc);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 1;
  }
  doc.Set("ops", std::move(ops));
  if (workload != "serve-mix") {
    doc.Set("peak_rss_kb", obs::ReadRssHighWaterKb());
  }
  if (flags.trace) doc.Set("sweep", LayoutSweep(log));
  doc.Set("spans", log.ToJson());

  std::ofstream out(flags.out);
  out << doc.Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace zkml

int main(int argc, char** argv) { return zkml::Main(argc, argv); }
