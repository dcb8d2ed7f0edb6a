// Manager-worker protocol messages (paper §2.2, §3.3, §3.4).
//
// All control messages are JSON frames with a "type" field; file payloads
// ride in blob frames tagged with the cache name. This header provides
// typed encode/decode so the manager, worker, and tests never hand-build
// message objects.
//
// Control channel, manager -> worker:
//   put          manager pushes a cache object (blob frame follows)
//   fetch        worker downloads from a URL or a peer worker
//   mini_task    worker materializes a file by running a task spec
//   run_task     execute a task (all inputs already cached)
//   unlink       delete a cache object
//   cancel_transfer abort a stale (prefetch) fetch instruction
//   send_file    send a cached object back to the manager
//   end_workflow clear task/workflow-lifetime cache state
//   shutdown     terminate the worker
//
// Control channel, worker -> manager:
//   hello          registration: id, resources, transfer address
//   cache_update   object became present (or failed); echoes transfer_id
//   task_done      task completed (any kind)
//   library_ready  a Library Instance finished init and accepts calls
//   file_data      response to send_file (blob frame follows)
//
// Peer transfer channel (worker <-> worker, also used by manager fetches):
//   get            request an object by cache name
//   obj            response header (blob frame follows when ok); an ok
//                  obj attests the blob's XXH64 under "xxh64" (the key
//                  that replaced the MD5 "digest" — a peer still sending
//                  "digest" is refused, not accepted unchecked)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "catalog/transfer_table.hpp"
#include "files/file_decl.hpp"
#include "json/json.hpp"
#include "task/resources.hpp"
#include "task/task_spec.hpp"

namespace vine::proto {

// ----------------------------------------------------------- primitives

/// Resources <-> JSON.
json::Value resources_to_json(const Resources& r);
Resources resources_from_json(const json::Value& v);

/// TransferSource <-> JSON ({"kind":"worker","key":"w1","addr":"..."}").
/// `addr` carries the peer's transfer address for worker sources.
json::Value source_to_json(const TransferSource& s, const std::string& addr = "");
TransferSource source_from_json(const json::Value& v);

/// Wire form of one file binding (cache name + sandbox name + lifetime).
struct WireMount {
  std::string cache_name;
  std::string sandbox_name;
  CacheLevel level = CacheLevel::workflow;
};

/// Wire form of a task: everything the worker needs to execute it. File
/// bindings are flattened to cache names; the worker never sees FileDecl.
struct WireTask {
  TaskId id = 0;
  TaskKind kind = TaskKind::command;
  std::string command;
  std::string function_name;
  std::string function_args;
  std::string library_name;
  std::vector<WireMount> inputs;
  std::vector<WireMount> outputs;
  std::map<std::string, std::string> env;
  Resources resources;
  double timeout_seconds = 0;
};

json::Value wire_task_to_json(const WireTask& t);
Result<WireTask> wire_task_from_json(const json::Value& v);

/// Flatten a TaskSpec (with resolved cache names) to its wire form.
WireTask to_wire(const TaskSpec& spec);

// ------------------------------------------------- manager -> worker

struct PutMsg {  // followed by a blob frame tagged cache_name
  std::string transfer_id;
  std::string cache_name;
  CacheLevel level = CacheLevel::workflow;
  bool is_dir = false;  ///< blob is a vpak archive to unpack into the cache
};

struct FetchMsg {
  std::string transfer_id;
  std::string cache_name;
  CacheLevel level = CacheLevel::workflow;
  TransferSource source;     // url or worker
  std::string source_addr;   // peer transfer address for worker sources
  /// Background lookahead staging rather than a task-critical input: the
  /// worker tags the cached object so capacity pressure evicts it before
  /// any live workflow state, and a cancel_transfer may abort it.
  bool prefetch = false;
  /// Redundancy copy: the worker pins the cached object so capacity
  /// pressure never evicts it (the manager relies on pinned replicas to
  /// satisfy the replication invariant). Mutually exclusive with prefetch.
  bool pin = false;
};

struct MiniTaskMsg {
  std::string transfer_id;
  std::string cache_name;  ///< the output object this mini-task materializes
  CacheLevel level = CacheLevel::workflow;
  WireTask task;           ///< outputs[0].sandbox_name is the produced file
};

struct RunTaskMsg {
  WireTask task;
};

struct UnlinkMsg {
  std::string cache_name;
};

/// Abort a previously instructed (prefetch) transfer whose prediction went
/// stale. Best-effort: a fetch that has not started is dropped; one already
/// finished simply completes. Either way the worker answers with a
/// cache_update echoing the transfer_id so the manager's transfer table
/// closes the record.
struct CancelTransferMsg {
  std::string transfer_id;
};

struct SendFileMsg {
  std::string request_id;
  std::string cache_name;
};

struct EndWorkflowMsg {};
struct ShutdownMsg {};

// ------------------------------------------------- worker -> manager

/// A produced or cached object: name + size.
struct OutputRecord {
  std::string cache_name;
  std::int64_t size = 0;
};

struct HelloMsg {
  std::string worker_id;
  std::string transfer_addr;
  Resources resources;

  /// Objects already in the worker's persistent cache (worker-lifetime
  /// files surviving from previous workflows). Registering these in the
  /// replica table is what makes hot-cache runs (Figure 9b) skip staging.
  std::vector<OutputRecord> cached;
};

/// Keepalive beacon. Any frame refreshes the manager's liveness deadline for
/// the sending worker; the heartbeat exists so an *idle* worker still
/// refreshes it. A connected worker that stops heartbeating past the
/// manager's deadline is evicted exactly like a dropped connection.
struct HeartbeatMsg {};

struct CacheUpdateMsg {
  std::string cache_name;
  std::string transfer_id;  ///< empty for task outputs / spontaneous updates
  bool ok = true;
  std::int64_t size = -1;
  std::string error;
};

struct TaskDoneMsg {
  TaskId task_id = 0;
  bool ok = false;
  bool resource_exceeded = false;  ///< failed by exceeding its allocation
  int exit_code = -1;
  std::string output;  ///< captured stdout / function result
  std::string error;
  double started_at = 0;
  double finished_at = 0;
  std::vector<OutputRecord> outputs;
};

struct LibraryReadyMsg {
  TaskId task_id = 0;
  std::string library_name;
  std::vector<std::string> functions;
};

struct FileDataMsg {  // followed by a blob frame when ok
  std::string request_id;
  std::string cache_name;
  bool ok = false;
  std::string error;
};

// ------------------------------------------------- peer transfers

struct GetMsg {
  std::string cache_name;
};

struct ObjMsg {  // followed by a blob frame when ok
  std::string cache_name;
  bool ok = false;
  bool is_dir = false;  ///< blob is a vpak archive of the directory
  std::string error;

  /// XXH64 checksum (16 hex digits, wire key "xxh64") of the blob that
  /// follows, computed by the serving worker. Receivers verify the payload
  /// against it before caching, turning in-flight corruption into a
  /// retryable transfer failure instead of a silently poisoned cache. Every
  /// ok obj carries one; a receiver refuses an ok obj without it.
  std::string checksum;
};

// ----------------------------------------------------------- envelope

/// Any decoded protocol message.
using AnyMessage =
    std::variant<PutMsg, FetchMsg, MiniTaskMsg, RunTaskMsg, UnlinkMsg,
                 CancelTransferMsg, SendFileMsg, EndWorkflowMsg, ShutdownMsg,
                 HelloMsg, HeartbeatMsg, CacheUpdateMsg, TaskDoneMsg,
                 LibraryReadyMsg, FileDataMsg, GetMsg, ObjMsg>;

/// Encode any message to its JSON frame body.
json::Value encode(const AnyMessage& msg);

/// Decode a JSON frame body; Errc::protocol_error on unknown/malformed.
Result<AnyMessage> decode(const json::Value& v);

/// CacheLevel <-> wire string.
const char* level_to_wire(CacheLevel level);
CacheLevel level_from_wire(const std::string& s);

}  // namespace vine::proto
