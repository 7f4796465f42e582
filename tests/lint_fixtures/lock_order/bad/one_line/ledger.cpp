// Lock-order bad fixture, one-line bodies: the cross_tu pair again, but
// Ledger::settle takes ledger_mutex_ in a body that sits on the line
// that opens it, as clang-format keeps a one-statement body. Ledger::post
// calls append_entry() with ledger_mutex_ held, and append_entry
// (journal.cpp, also one line) takes journal_mutex_, so ledger_mutex_ ->
// journal_mutex_; journal.cpp makes the reverse edge through settle().
namespace kc::compat {
class Mutex {
 public:
  void lock();
  void unlock();
};
class LockGuard {
 public:
  explicit LockGuard(Mutex& m);
  ~LockGuard();
};
}  // namespace kc::compat

namespace kc {

void append_entry();

class Ledger {
 public:
  void post();
  void settle();

 private:
  compat::Mutex ledger_mutex_;
  int balance_ = 0;
};

void Ledger::post() {
  compat::LockGuard lock(ledger_mutex_);
  balance_ += 1;
  append_entry();
}

void Ledger::settle() { compat::LockGuard lock(ledger_mutex_); }

}  // namespace kc
