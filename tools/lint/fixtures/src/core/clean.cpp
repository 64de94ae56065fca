// Clean fixture for hetsgd-lint --self-test: realistic core-style code
// that must produce zero findings.
#include <cstdio>
#include <memory>
#include <vector>

namespace fixture {

struct Mailbox {
  bool send(int) { return true; }
};

struct Renewal {  // identifier containing "new" — not a new-expression
  int newest = 0;
  void renew() { newest += 1; }
};

bool dispatch(Mailbox& box, std::vector<int>& pool) {
  // Checked send, container-owned memory, stderr logging only.
  if (!box.send(42)) {
    std::fprintf(stderr, "send failed: mailbox closed\n");
    return false;
  }
  auto owned = std::make_unique<Renewal>();
  owned->renew();
  pool.push_back(owned->newest);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d", owned->newest);
  return true;
}

}  // namespace fixture
