// Actor: a long-lived thread with a mailbox.
//
// The coordinator and every worker in the framework is an Actor (§V-A:
// "the coordinator and workers are implemented as stand-alone system
// threads that exist over the entire duration of the program"). Messages
// are processed strictly in arrival order by the owning thread; all
// cross-thread communication goes through mailboxes, all bulk data through
// shared memory references.
//
// Concurrency contract:
//   - send() is the ONLY member safe to call from any thread; it delegates
//     to the internally-synchronized Mailbox.
//   - start()/join() and the fields started_, thread_, idle_interval_ are
//     OWNER-THREAD-CONFINED: touched by the thread that constructed and
//     started the actor, and after that only by a thread ordered after it
//     by a join(). A worker an elastic join adds is built and started on
//     the coordinator's actor thread; the Trainer joins it after
//     coordinator.join(), which orders the start before the join.
//   - handle()/on_start()/on_idle()/on_handle_exception() run on the actor
//     thread only; subclass state they touch is actor-thread-confined
//     unless the subclass locks it.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "msg/mailbox.hpp"
#include "msg/message.hpp"

namespace hetsgd::msg {

class Actor {
 public:
  explicit Actor(std::string name);
  virtual ~Actor();

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  // Spawns the message loop thread. Must be called exactly once.
  void start();

  // Blocks until the message loop exits (after a Shutdown was handled).
  void join();

  // Enqueues a message; thread-safe. Returns false if the mailbox closed.
  bool send(Envelope envelope);

  const std::string& name() const { return name_; }

 protected:
  // Handles one message on the actor thread. Return false to exit the loop.
  virtual bool handle(Envelope envelope) = 0;

  // Runs on the actor thread before the first message.
  virtual void on_start() {}

  // Called on the actor thread when a handle() call throws instead of
  // returning — the loop catches the exception rather than letting it
  // reach std::terminate. Return true to keep processing messages, false
  // to exit the loop (the default: log and stop). Workers override this to
  // convert the exception into a WorkerFault report for the coordinator.
  virtual bool on_handle_exception(const std::string& what);

  // Periodic callback when the mailbox has been idle for one tick of
  // set_idle_interval(). Return false to exit the loop. Lets the
  // coordinator run real-time deadline checks even when every worker has
  // gone silent. Never called unless an interval was set.
  virtual bool on_idle() { return true; }

  // Enables on_idle() ticks. Call before start().
  void set_idle_interval(std::chrono::milliseconds interval) {
    idle_interval_ = interval;
  }

 private:
  void run();

  std::string name_;
  Mailbox<Envelope> mailbox_;
  std::thread thread_;
  bool started_ = false;
  std::optional<std::chrono::milliseconds> idle_interval_;
};

}  // namespace hetsgd::msg
