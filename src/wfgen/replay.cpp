#include "wfgen/replay.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "common/uuid.hpp"
#include "core/taskvine.hpp"

namespace vine::wfgen {

namespace {

/// Data edges of `inst` resolved once: producer index per file name, and
/// per task the parent edges that share no file (pure control edges, backed
/// by a synthetic 1-byte file named "ctl-<parent>-<child>").
struct EdgePlan {
  std::map<std::string, std::size_t, std::less<>> producer;  // file -> task idx
  std::map<std::string, std::size_t, std::less<>> by_id;     // id -> task idx
  /// (child idx, parent idx) pairs needing a synthetic control file.
  std::vector<std::pair<std::size_t, std::size_t>> control_edges;
};

EdgePlan plan_edges(const WorkflowInstance& inst) {
  EdgePlan plan;
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    plan.by_id.emplace(inst.tasks[i].id, i);
    for (const InstanceFile& f : inst.tasks[i].outputs) {
      plan.producer.emplace(f.name, i);
    }
  }
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    const InstanceTask& t = inst.tasks[i];
    for (const std::string& pid : t.parents) {
      std::size_t p = plan.by_id.at(pid);
      bool shared = false;
      for (const InstanceFile& f : t.inputs) {
        auto it = plan.producer.find(f.name);
        if (it != plan.producer.end() && it->second == p) {
          shared = true;
          break;
        }
      }
      if (!shared) plan.control_edges.emplace_back(i, p);
    }
  }
  return plan;
}

std::string control_file_name(const WorkflowInstance& inst, std::size_t child,
                              std::size_t parent) {
  return "ctl-" + inst.tasks[parent].id + "-" + inst.tasks[child].id;
}

std::string pin_name(std::size_t task_idx, int workers) {
  return "w" + std::to_string(task_idx % static_cast<std::size_t>(workers));
}

// ------------------------------------------------------------- sim half ----

Result<ReplayResult> replay_sim(const WorkflowInstance& inst,
                                const ReplayOptions& opt) {
  reseed_uuid_generator(opt.seed);

  vinesim::SimConfig cfg;
  cfg.seed = opt.seed;
  cfg.sched = opt.sched;
  cfg.redundancy = opt.redundancy;
  if (opt.trace) cfg.trace = opt.trace;

  vinesim::ClusterSim cs(cfg);
  for (int w = 0; w < opt.workers; ++w) {
    cs.add_worker("w" + std::to_string(w), 0, opt.worker_cores);
  }

  const EdgePlan edges = plan_edges(inst);
  std::map<std::string, vinesim::SimFile*, std::less<>> files;

  // Declare every file once, in instance order: produced files are temps
  // sized by their declaration; never-produced inputs are manager pushes.
  for (const InstanceTask& t : inst.tasks) {
    for (const InstanceFile& f : t.outputs) {
      files.emplace(f.name, cs.declare_file(f.name, 0,
                                            vinesim::SimFile::Origin::temp));
    }
  }
  for (const InstanceTask& t : inst.tasks) {
    for (const InstanceFile& f : t.inputs) {
      if (files.count(f.name)) continue;
      files.emplace(f.name,
                    cs.declare_file(f.name, std::max<std::int64_t>(1, f.bytes),
                                    vinesim::SimFile::Origin::manager));
    }
  }
  for (const auto& [child, parent] : edges.control_edges) {
    std::string name = control_file_name(inst, child, parent);
    files.emplace(name,
                  cs.declare_file(name, 0, vinesim::SimFile::Origin::temp));
  }

  std::vector<vinesim::SimTask*> sim_tasks;
  sim_tasks.reserve(inst.tasks.size());
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    const InstanceTask& t = inst.tasks[i];
    auto* st = cs.add_task(t.category.empty() ? "task" : t.category,
                           std::max(t.runtime_s, 1e-6),
                           std::min(t.cores, opt.worker_cores));
    if (opt.pin_round_robin) st->pin_worker = pin_name(i, opt.workers);
    for (const InstanceFile& f : t.inputs) st->inputs.push_back(files.at(f.name));
    for (const InstanceFile& f : t.outputs) {
      st->outputs.push_back({files.at(f.name), std::max<std::int64_t>(1, f.bytes)});
    }
    sim_tasks.push_back(st);
  }
  for (const auto& [child, parent] : edges.control_edges) {
    vinesim::SimFile* f = files.at(control_file_name(inst, child, parent));
    sim_tasks[parent]->outputs.push_back({f, 1});
    sim_tasks[child]->inputs.push_back(f);
  }

  if (opt.faults) cs.apply_fault_plan(*opt.faults);

  ReplayResult result;
  result.makespan = cs.run();
  result.sim_stats = cs.stats();
  result.tasks_done = cs.stats().tasks_done;
  result.tasks_unfinished = cs.stats().tasks_unfinished;
  for (const auto& [name, file] : files) result.cache_names[name] = name;
  return result;
}

// --------------------------------------------------------- runtime half ----

/// Sandbox-safe name: the logical file name with anything outside
/// [A-Za-z0-9._-] replaced by '_' (names are unique per task already).
std::string sandbox_name(const std::string& logical) {
  std::string out = logical;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

Result<ReplayResult> replay_runtime(const WorkflowInstance& inst,
                                    const ReplayOptions& opt) {
  const EdgePlan edges = plan_edges(inst);

  LocalClusterConfig cc;
  cc.workers = opt.workers;
  cc.per_worker = Resources{.cores = opt.worker_cores,
                            .memory_mb = 8000,
                            .disk_mb = 50000,
                            .gpus = 0};
  cc.manager.sched = opt.sched;
  cc.manager.redundancy = opt.redundancy;
  cc.trace = opt.trace;
  auto cluster = LocalCluster::create(std::move(cc));
  if (!cluster.ok()) return cluster.error();
  Manager& m = (*cluster)->manager();

  // Synthetic control-edge files ride per (child, parent) pair.
  std::map<std::string, std::vector<std::string>, std::less<>> extra_outputs;
  std::map<std::string, std::vector<std::string>, std::less<>> extra_inputs;
  std::map<std::string, FileRef, std::less<>> refs;
  for (const auto& [child, parent] : edges.control_edges) {
    std::string name = control_file_name(inst, child, parent);
    refs.emplace(name, m.declare_temp());
    extra_outputs[inst.tasks[parent].id].push_back(name);
    extra_inputs[inst.tasks[child].id].push_back(name);
  }
  for (const InstanceTask& t : inst.tasks) {
    for (const InstanceFile& f : t.outputs) refs.emplace(f.name, m.declare_temp());
  }
  for (const InstanceTask& t : inst.tasks) {
    for (const InstanceFile& f : t.inputs) {
      if (refs.count(f.name)) continue;
      // Buffers are content-addressed, so seed each with its logical name:
      // two distinct external inputs must never collapse into one cache
      // object, or the halves' transfer accounting diverges.
      auto bytes = static_cast<std::size_t>(std::clamp<std::int64_t>(
          f.bytes, 1, opt.runtime_bytes_cap));
      std::string content = f.name + ":";
      content.resize(std::max(bytes, content.size()), 'x');
      refs.emplace(f.name, m.declare_buffer(std::move(content)));
    }
  }

  ReplayResult result;
  // Makespan runs from the first submit to the last completion, both read
  // on the manager's clock.
  const double first_submit = m.now();

  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    const InstanceTask& t = inst.tasks[i];
    // The command materializes each declared output at (capped) size; the
    // runtime stages inputs regardless of whether the command reads them.
    std::string command;
    auto emit_output = [&](const std::string& name, std::int64_t bytes) {
      if (!command.empty()) command += " && ";
      command += "head -c " +
                 std::to_string(std::clamp<std::int64_t>(
                     bytes, 1, opt.runtime_bytes_cap)) +
                 " /dev/zero > " + sandbox_name(name);
    };
    for (const InstanceFile& f : t.outputs) emit_output(f.name, f.bytes);
    if (auto it = extra_outputs.find(t.id); it != extra_outputs.end()) {
      for (const std::string& name : it->second) emit_output(name, 1);
    }
    if (command.empty()) command = "true";

    TaskBuilder builder(command);
    builder.cores(std::min(t.cores, opt.worker_cores));
    for (const InstanceFile& f : t.inputs) {
      builder.input(refs.at(f.name), sandbox_name(f.name));
    }
    if (auto it = extra_inputs.find(t.id); it != extra_inputs.end()) {
      for (const std::string& name : it->second) {
        builder.input(refs.at(name), sandbox_name(name));
      }
    }
    for (const InstanceFile& f : t.outputs) {
      builder.output(refs.at(f.name), sandbox_name(f.name));
    }
    if (auto it = extra_outputs.find(t.id); it != extra_outputs.end()) {
      for (const std::string& name : it->second) {
        builder.output(refs.at(name), sandbox_name(name));
      }
    }
    if (opt.pin_round_robin) builder.pin_to_worker(pin_name(i, opt.workers));
    if (auto ok = m.submit(builder.build()); !ok.ok()) {
      return Error{ok.error().code,
                   "submit of task \"" + t.id + "\" failed: " +
                       ok.error().message};
    }
  }

  // Temp cache names are assigned at submit; read them only now.
  for (const auto& [name, ref] : refs) result.cache_names[name] = ref->cache_name;

  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    auto r = m.wait(std::chrono::milliseconds(opt.runtime_wait_ms));
    if (!r.ok()) {
      result.tasks_unfinished =
          static_cast<int>(inst.tasks.size()) - result.tasks_done;
      return Error{r.error().code, "replay wait failed after " +
                                       std::to_string(result.tasks_done) +
                                       " tasks: " + r.error().message};
    }
    if (!r->ok()) {
      return Error{Errc::task_failed, "task " + std::to_string(r->id) +
                                          " failed: " + r->error_message};
    }
    ++result.tasks_done;
  }
  result.makespan = m.now() - first_submit;
  m.end_workflow();
  (*cluster)->shutdown();
  return result;
}

}  // namespace

Result<ReplayResult> run_workload(const WorkflowInstance& instance,
                                  const ReplayOptions& options) {
  if (auto ok = instance.validate(); !ok.ok()) {
    return Error{ok.error().code,
                 "invalid instance \"" + instance.name + "\": " +
                     ok.error().message};
  }
  if (options.workers <= 0 || options.worker_cores <= 0) {
    return Error{Errc::invalid_argument, "replay needs workers > 0 with cores"};
  }
  return options.backend == Backend::sim ? replay_sim(instance, options)
                                         : replay_runtime(instance, options);
}

Result<ReplayResult> run_workload_json(std::string_view instance_json,
                                       const ReplayOptions& options) {
  auto inst = import_instance(instance_json);
  if (!inst.ok()) return inst.error();
  return run_workload(*inst, options);
}

}  // namespace vine::wfgen
