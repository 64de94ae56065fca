#include "msg/actor.hpp"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace hetsgd::msg {
namespace {

// Echoes every ScheduleWork back to a partner as ExecuteWork; exits on
// Shutdown.
class EchoActor final : public Actor {
 public:
  explicit EchoActor(std::string name) : Actor(std::move(name)) {}

  void set_partner(Actor* partner) { partner_ = partner; }
  int received() const { return received_.load(); }

 protected:
  bool handle(Envelope envelope) override {
    if (std::holds_alternative<Shutdown>(envelope.message)) {
      return false;
    }
    received_.fetch_add(1);
    if (partner_ != nullptr &&
        std::holds_alternative<ScheduleWork>(envelope.message)) {
      const auto& req = std::get<ScheduleWork>(envelope.message);
      if (req.updates > 0) {
        ScheduleWork next = req;
        --next.updates;
        partner_->send({0, next});
      } else {
        done_.store(true);
      }
    }
    return true;
  }

 public:
  std::atomic<bool> done_{false};

 private:
  Actor* partner_ = nullptr;
  std::atomic<int> received_{0};
};

TEST(Actor, ProcessesMessagesInOrder) {
  class Recorder final : public Actor {
   public:
    Recorder() : Actor("recorder") {}
    std::vector<std::uint64_t> seen;

   protected:
    bool handle(Envelope envelope) override {
      if (std::holds_alternative<Shutdown>(envelope.message)) return false;
      seen.push_back(std::get<ExecuteWork>(envelope.message).batch_begin);
      return true;
    }
  };
  Recorder recorder;
  recorder.start();
  for (std::uint64_t i = 0; i < 100; ++i) {
    ExecuteWork w;
    w.batch_begin = i;
    recorder.send({kCoordinator, w});
  }
  recorder.send({kCoordinator, Shutdown{}});
  recorder.join();
  ASSERT_EQ(recorder.seen.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(recorder.seen[i], i);
  }
}

TEST(Actor, PingPongBetweenActors) {
  EchoActor a("a"), b("b");
  a.set_partner(&b);
  b.set_partner(&a);
  a.start();
  b.start();
  ScheduleWork kick;
  kick.updates = 500;  // 500 hops between the actors
  a.send({kCoordinator, kick});
  while (!a.done_.load() && !b.done_.load()) {
    std::this_thread::yield();
  }
  a.send({kCoordinator, Shutdown{}});
  b.send({kCoordinator, Shutdown{}});
  a.join();
  b.join();
  EXPECT_EQ(a.received() + b.received(), 501);
}

TEST(Actor, SendAfterExitFailsGracefully) {
  EchoActor a("a");
  a.start();
  a.send({kCoordinator, Shutdown{}});
  a.join();
  EXPECT_FALSE(a.send({kCoordinator, ScheduleWork{}}));
}

TEST(Actor, NameAccessor) {
  EchoActor a("my-worker");
  EXPECT_EQ(a.name(), "my-worker");
  a.start();
  a.send({kCoordinator, Shutdown{}});
  a.join();
}

TEST(Actor, StartStopHooksRunOnActorThread) {
  class Hooked final : public Actor {
   public:
    Hooked() : Actor("hooked") {}
    std::atomic<bool> started{false};

   protected:
    void on_start() override { started = true; }
    bool handle(Envelope) override { return false; }
  };
  Hooked h;
  h.start();
  h.send({kCoordinator, Shutdown{}});
  h.join();
  EXPECT_TRUE(h.started.load());
}

}  // namespace
}  // namespace hetsgd::msg
