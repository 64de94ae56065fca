// Seeded-violation fixture for hetsgd-lint --self-test: a file named like
// the lock-free queue that once was the one file exempt from naked-new.
// No file is exempt now, so its `new` must be reported like any other.
// This file is never compiled.
#pragma once

namespace fixture {

struct Node {
  Node* next = nullptr;
};

inline Node* make_stub() {
  return new Node();  // EXPECT: naked-new
}

}  // namespace fixture
