// Lock-order good fixture, cross-TU: Ledger::post calls append_entry()
// with ledger_mutex_ held, so ledger_mutex_ -> journal_mutex_ (journal.cpp)
// as in the bad pair. Here journal.cpp releases its mutex before it calls
// back into the ledger, so no reverse edge exists and the joined graph
// has no cycle.
namespace kc::compat {
class Mutex {
 public:
  void lock();
  void unlock();
};
class LockGuard {
 public:
  explicit LockGuard(Mutex &m);
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

void Ledger::settle() {
  compat::LockGuard lock(ledger_mutex_);
  balance_ = 0;
}

}  // namespace kc
