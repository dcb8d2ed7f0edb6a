// control::Core driven through a scripted fake host: no sockets, no flow
// network, just the decisions. Each drift test pins one rule on which the
// manager's and the simulator's former copies of the scheduling pass
// disagreed; the comment on each names the copy it would have failed
// against. The last test checks the core's own audit after a worker loss.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "control/core.hpp"

namespace vine::control {
namespace {

/// Records every I/O request instead of carrying it out.
class FakeHost : public Host {
 public:
  std::vector<Transfer> moves;
  std::vector<TaskId> dispatched;
  std::vector<std::string> cancelled;
  std::vector<obs::Event> events;
  std::set<std::string> at_manager;

  bool move_bytes(const Transfer& t) override {
    moves.push_back(t);
    return true;
  }
  void dispatch(TaskEntry& task) override { dispatched.push_back(task.spec.id); }
  void cancel_transfer(const std::string& uuid, const PrefetchTrack&) override {
    cancelled.push_back(uuid);
  }
  void emit(obs::Event ev) override { events.push_back(std::move(ev)); }
  double now() const override { return 0; }
  bool held_at_manager(const std::string& name) const override {
    return at_manager.count(name) > 0;
  }

  int sched_pass_events() const {
    int n = 0;
    for (const auto& ev : events) n += ev.kind == obs::EventKind::sched_pass;
    return n;
  }
};

FileRef temp_file(const std::string& name, TaskId producer, std::int64_t bytes = 100) {
  auto d = std::make_shared<FileDecl>();
  d->kind = FileKind::temp;
  d->cache_name = name;
  d->producer_task = producer;
  d->size_hint = bytes;
  return d;
}

FileRef buffer_file(const std::string& name, std::int64_t bytes) {
  auto d = std::make_shared<FileDecl>();
  d->kind = FileKind::buffer;
  d->cache_name = name;
  d->size_hint = bytes;
  return d;
}

TaskSpec task(TaskId id, std::vector<FileRef> inputs, std::vector<FileRef> outputs,
              const std::string& pin = "") {
  TaskSpec spec;
  spec.id = id;
  spec.resources = {.cores = 1, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
  spec.pinned_worker = pin;
  for (auto& f : inputs) spec.inputs.push_back({f, f->cache_name});
  for (auto& f : outputs) spec.outputs.push_back({f, f->cache_name});
  return spec;
}

WorkerSnapshot worker(const std::string& id, double cores) {
  WorkerSnapshot snap;
  snap.id = id;
  snap.total = {.cores = cores, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
  return snap;
}

struct Fixture {
  explicit Fixture(SchedulerConfig sched = {})
      : core(host, stats, sched, /*seed=*/1, redundancy::RedundancyConfig{}) {}

  /// A dispatched task finishes with no outputs recorded.
  void finish(TaskId id) { core.task_done(*core.task(id), TaskState::done, {}, 0); }

  FakeHost host;
  ControlStats stats;
  Core core;
};

// Drift: the simulator's gate skipped a consumer of a lost temp without
// ever re-running the producer (it recovered only from the crash path), so
// a temp whose last copy vanished before its consumer was scanned stranded
// the consumer.
TEST(ControlCore, GateRequeuesDoneProducerOfLostTemp) {
  Fixture f;
  f.core.worker_joined(worker("w0", 4));
  FileRef t = temp_file("T", 1);
  f.core.submit(task(1, {}, {t}), "produce");
  f.core.schedule_pass();
  ASSERT_EQ(f.host.dispatched, (std::vector<TaskId>{1}));
  f.finish(1);  // ... and its only copy of T is gone: no replica recorded

  f.core.submit(task(2, {t}, {}), "consume");
  f.core.schedule_pass();
  EXPECT_EQ(f.core.task(1)->state, TaskState::ready);
  EXPECT_TRUE(f.core.task(1)->recovering);
  EXPECT_EQ(f.stats.recoveries, 1);
  EXPECT_TRUE(f.core.task(2)->worker.empty());  // still gated

  f.core.schedule_pass();  // the re-queued producer runs again
  EXPECT_EQ(f.host.dispatched, (std::vector<TaskId>{1, 1}));
  EXPECT_EQ(f.stats.recoveries, 1);  // one episode, counted once
}

// Drift: the manager's gate knew only worker replicas, so a temp the host
// holds at the manager (the simulator's retrieved outputs) blocked its
// consumer and even re-ran the producer.
TEST(ControlCore, TempHeldAtManagerCountsAsProduced) {
  Fixture f;
  f.core.worker_joined(worker("w0", 4));
  FileRef t = temp_file("T", 1);
  f.core.submit(task(1, {}, {t}), "produce");
  f.core.schedule_pass();
  f.finish(1);
  f.host.at_manager.insert("T");

  f.core.submit(task(2, {t}, {}), "consume");
  f.core.schedule_pass();
  EXPECT_EQ(f.core.task(2)->worker, "w0");
  EXPECT_EQ(f.core.task(1)->state, TaskState::done);
  EXPECT_EQ(f.stats.recoveries, 0);
  ASSERT_EQ(f.host.moves.size(), 1u);
  EXPECT_EQ(f.host.moves[0].cache_name, "T");
  EXPECT_EQ(f.host.moves[0].source.kind, TransferSource::Kind::manager);
}

// Drift: the simulator emitted a sched_pass event for every pass, empty or
// not; a pass that scans nothing must still count.
TEST(ControlCore, EmptyPassCountsButEmitsNothing) {
  Fixture f;
  f.core.worker_joined(worker("w0", 4));
  f.core.schedule_pass();
  f.core.schedule_pass();
  EXPECT_EQ(f.stats.sched_passes, 2);
  EXPECT_EQ(f.stats.tasks_scanned, 0);
  EXPECT_EQ(f.host.sched_pass_events(), 0);

  f.core.submit(task(1, {}, {}), "t");
  f.core.schedule_pass();
  EXPECT_EQ(f.stats.sched_passes, 3);
  EXPECT_EQ(f.stats.tasks_scanned, 1);
  ASSERT_EQ(f.host.sched_pass_events(), 1);
  const obs::Event& ev = f.host.events.back();
  EXPECT_EQ(ev.kind, obs::EventKind::sched_pass);
  EXPECT_EQ(ev.scanned, 1);
  EXPECT_EQ(ev.dispatched, 1);
}

// Drift: the simulator kept a prefetch alive while its consumer was done;
// only a failed or misplaced consumer counted as stale there.
TEST(ControlCore, PrefetchForDoneConsumerIsCancelled) {
  SchedulerConfig sched;
  sched.lookahead.enabled = true;
  Fixture f(sched);
  f.core.worker_joined(worker("w0", 4));
  f.core.worker_joined(worker("w1", 4));
  FileRef t = temp_file("T", 1, /*bytes=*/1000);
  FileRef x = buffer_file("X", 10);
  f.core.object_announced("w1", {"X", 10});

  // The producer lands on w0, so the consumer is predicted there (T's
  // 1000 expected bytes outweigh X's 10) and X is prefetched w1 -> w0.
  f.core.submit(task(1, {}, {t}, "w0"), "produce");
  f.core.submit(task(2, {t, x}, {}), "consume");
  f.core.schedule_pass();
  ASSERT_EQ(f.core.prefetches().size(), 1u);
  const auto& [uuid, track] = *f.core.prefetches().begin();
  EXPECT_EQ(track.consumer, 2u);
  EXPECT_EQ(track.dest, "w0");
  EXPECT_EQ(f.stats.prefetch_issued, 1);
  const std::string live = uuid;

  f.core.set_state(*f.core.task(2), TaskState::done);
  f.core.schedule_pass();
  EXPECT_EQ(f.host.cancelled, (std::vector<std::string>{live}));
  f.core.schedule_pass();  // cancel sent once; the host's reply closes it
  EXPECT_EQ(f.host.cancelled.size(), 1u);
}

// Drift: the runtime factory took queue depth as outstanding tasks minus
// running_tasks, and a placed library instance counts in running_tasks, so
// each instance hid one queued FunctionCall (here: 1 - 1 = 0, and the
// factory saw no queue). The core counts the unplaced ready tasks.
TEST(ControlCore, PlacedLibraryDoesNotHideQueuedCallFromFactory) {
  Fixture f;
  f.core.worker_joined(worker("w0", 4));
  TaskSpec lib = task(1, {}, {}, "w0");
  lib.kind = TaskKind::library;
  lib.library_name = "L";
  f.core.submit(lib, "library");
  TaskSpec call = task(2, {}, {});
  call.kind = TaskKind::function_call;
  call.library_name = "L";
  f.core.submit(call, "function_call");
  f.core.schedule_pass();  // the instance is placed; the call waits for it
  ASSERT_EQ(f.host.dispatched, (std::vector<TaskId>{1}));

  const factory::FactorySignals s = f.core.factory_signals(0);
  EXPECT_EQ(s.running_tasks, 1);
  EXPECT_EQ(s.ready_tasks, 1);
  EXPECT_EQ(s.busy_cores, 1);
  EXPECT_EQ(s.total_cores, 4);

  // Once the instance is up the call is placed: nothing is queued.
  f.core.library_ready("w0", 1, "L");
  f.core.schedule_pass();
  EXPECT_EQ(f.host.dispatched, (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(f.core.factory_signals(0).ready_tasks, 0);
}

// Retirement takes only idle factory workers, and never a batch that would
// take an object's last copy: fw1 and fw2 hold the only two copies of X.
TEST(ControlCore, RetirementKeepsALastCopy) {
  Fixture f;
  for (const char* id : {"w0", "fw1", "fw2", "fw3"}) f.core.worker_joined(worker(id, 1));
  f.core.object_announced("fw1", {"X", 10});
  f.core.object_announced("fw2", {"X", 10});
  f.core.object_announced("w0", {"Y", 10});
  f.core.object_announced("fw3", {"Y", 10});
  EXPECT_EQ(f.core.retirable(4), (std::vector<WorkerId>{"fw1", "fw3"}));
  EXPECT_EQ(f.core.retirable(1), (std::vector<WorkerId>{"fw1"}));

  f.core.submit(task(1, {}, {}, "fw3"), "t");
  f.core.schedule_pass();  // fw3 is busy now
  EXPECT_EQ(f.core.retirable(4), (std::vector<WorkerId>{"fw1"}));
}

// Worker loss swap-pops the dense snapshot vector; afterwards the slot map
// is a bijection, the ready set mirrors TaskState::ready, and Σ available
// cores matches the surviving snapshots.
TEST(ControlCore, AuditCleanAfterSwapPop) {
  Fixture f;
  // w0 keeps spare cores, so dropping it must take them out of Σ available.
  f.core.worker_joined(worker("w0", 4));
  f.core.worker_joined(worker("w1", 2));
  f.core.worker_joined(worker("w2", 2));
  f.core.submit(task(1, {}, {}, "w0"), "t");
  f.core.submit(task(2, {}, {}, "w1"), "t");
  f.core.submit(task(3, {}, {}, "w2"), "t");
  f.core.submit(task(4, {}, {}, "w0"), "t");
  f.core.schedule_pass();
  ASSERT_EQ(f.host.dispatched.size(), 4u);
  f.core.object_announced("w0", {"cached", 5});

  const auto purge = f.core.purge_worker("w0", "worker_lost");
  EXPECT_EQ(purge.lost, (std::vector<std::string>{"cached"}));
  ASSERT_EQ(f.core.workers().size(), 2u);
  EXPECT_EQ(f.core.workers()[0].id, "w2");  // the last slot moved down
  EXPECT_EQ(f.core.worker("w0"), nullptr);
  EXPECT_EQ(f.core.task(1)->state, TaskState::ready);
  EXPECT_EQ(f.core.task(4)->state, TaskState::ready);
  EXPECT_FALSE(f.core.task(1)->committed);
  f.core.recover_after_loss("w0", purge.lost);

  AuditReport report;
  f.core.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // The survivors keep working: finishing a task on the moved worker
  // releases into its new slot.
  f.finish(3);
  AuditReport after;
  f.core.audit(after);
  EXPECT_TRUE(after.ok()) << after.to_string();
  EXPECT_EQ(f.core.worker("w2")->committed.cores, 0);
}

}  // namespace
}  // namespace vine::control
