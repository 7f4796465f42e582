// Lock-order bad fixture, member calls across TUs: the classes that
// ledger.cpp and journal.cpp define, each holding the other through a
// member (a raw pointer, a unique_ptr). Hermetic lock mocks.
#pragma once

#include <memory>

namespace kc::compat {
class Mutex {};
class LockGuard {
 public:
  explicit LockGuard(Mutex& m);
};
}  // namespace kc::compat

namespace kc {

class Journal;

class Ledger {
 public:
  void post();
  void settle();

 private:
  compat::Mutex ledger_mutex_;
  Journal* journal_ = nullptr;
  int balance_ = 0;
};

class Journal {
 public:
  void append_entry();
  void rotate();

 private:
  compat::Mutex journal_mutex_;
  std::unique_ptr<Ledger> ledger_;
  int entries_ = 0;
};

}  // namespace kc
