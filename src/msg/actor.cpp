#include "msg/actor.hpp"

#include <exception>
#include <utility>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "obs/trace.hpp"

namespace hetsgd::msg {

Actor::Actor(std::string name) : name_(std::move(name)) {}

Actor::~Actor() {
  // Subclasses must join before destruction; enforce rather than hang.
  HETSGD_ASSERT(!thread_.joinable(), "Actor destroyed while thread running");
}

void Actor::start() {
  HETSGD_ASSERT(!started_, "Actor::start called twice");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void Actor::join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

bool Actor::send(Envelope envelope) {
  return mailbox_.push(std::move(envelope));
}

bool Actor::on_handle_exception(const std::string& what) {
  HETSGD_LOG_WARN(name_.c_str(), "message handler threw: %s", what.c_str());
  return false;
}

void Actor::run() {
  // Name this actor's track in any exported span trace.
  obs::Tracer::set_thread_name(name_);
  on_start();
  for (;;) {
    // Only this thread closes the mailbox, so an empty pop is an idle tick.
    std::optional<Envelope> envelope = mailbox_.pop(idle_interval_);
    if (!envelope) {
      if (!on_idle()) break;  // idle tick asked to stop
      continue;
    }
    // A throwing handler must not std::terminate the process: faults are
    // data, not death. The hook decides whether the loop survives.
    bool keep_running = true;
    try {
      keep_running = handle(std::move(*envelope));
    } catch (const std::exception& e) {
      keep_running = on_handle_exception(e.what());
    } catch (...) {
      keep_running = on_handle_exception("non-std exception");
    }
    if (!keep_running) break;
  }
  mailbox_.close();
  HETSGD_LOG_DEBUG(name_.c_str(), "actor loop exited");
}

}  // namespace hetsgd::msg
