#include "vproc/processor.hpp"

#include <cassert>

namespace axipack::vproc {

namespace {
constexpr unsigned kDispatchCycles = 2;  ///< CVA6 -> Ara handshake per op

// Loads may start once prior stores have at most this many W beats left
// to send. This models the VLSU's decoupled address phase: the next
// read's AR overlaps the tail of the store's data phase so the R stream
// follows the W stream without a pipeline bubble — the behaviour that
// makes ismt's read-write alternation settle at the paper's 50% R-bus
// ceiling. Kernels keep consecutive iterations' footprints disjoint, as
// real Ara code must. Calibrated against Fig. 3a: ismt R-util ~50%.
constexpr unsigned kStoreLoadRunahead = 12;
}  // namespace

Processor::Processor(sim::Kernel& k, const VProcConfig& cfg,
                     mem::BackingStore& store, axi::AxiPort* port)
    : ctx_(cfg),
      load_unit_(ctx_, port),
      store_unit_(ctx_, port),
      vfu_(ctx_) {
  ctx_.store = &store;
  assert(cfg.mode == VlsuMode::ideal || port != nullptr);
  k.add(*this);
  if (port != nullptr) {
    k.subscribe(*this, port->r);
    k.subscribe(*this, port->b);
  }
}

void Processor::run(const VecProgram& program) {
  assert(done() && "previous program still running");
  program_ = &program;
  pc_ = 0;
  scalar_until_ = 0;
  dispatch_until_ = 0;
  wake_self();
}

bool Processor::done() const {
  const bool program_drained =
      program_ == nullptr ||
      (pc_ == program_->ops.size() && now() >= scalar_until_);
  return program_drained && load_unit_.idle() && store_unit_.idle() &&
         vfu_.idle();
}

bool Processor::try_issue(const VecOp& op) {
  // Structural hazard: target unit queue.
  const bool is_load = is_load_op(op.kind);
  const bool is_store = is_store_op(op.kind);
#ifdef AXIPACK_DEBUG_STALLS
  static std::uint64_t stall_count = 0;
  if (++stall_count % 50000 == 0) {
    std::fprintf(stderr,
                 "stall pc op kind=%d vd=%d: load_can=%d store_can=%d "
                 "vfu_can=%d pending_w=%u loads_if=%u readers_vd=%d "
                 "idle(l/s/v)=%d%d%d beats_rx=%llu beats_tx=%llu "
                 "dispatches=%llu w_left=%llu\n",
                 (int)op.kind, op.vd, load_unit_.can_accept(),
                 store_unit_.can_accept(), vfu_.can_accept(),
                 ctx_.stores_pending_w, ctx_.loads_in_flight,
                 op.vd >= 0 ? ctx_.readers[(unsigned)op.vd] : -1,
                 load_unit_.idle(), store_unit_.idle(), vfu_.idle(),
                 (unsigned long long)ctx_.counters.get("vlsu.beats_rx"),
                 (unsigned long long)ctx_.counters.get("vlsu.beats_tx"),
                 (unsigned long long)ctx_.counters.get("proc.dispatches"),
                 (unsigned long long)ctx_.store_w_beats_left);
  }
#endif
  if (is_load && !load_unit_.can_accept()) return false;
  if (is_store && !store_unit_.can_accept()) return false;
  if (!is_load && !is_store && !vfu_.can_accept()) return false;

  const bool is_vfu = !is_load && !is_store;
  // WAW: stall unless both writers are VFU ops (they serialize in the VFU).
  if (op.vd >= 0) {
    const OpRef& producer = ctx_.producer_of[static_cast<unsigned>(op.vd)];
    if (producer && !producer->done) {
      const bool producer_vfu = !is_mem_op(producer->op.kind);
      if (!(is_vfu && producer_vfu)) return false;
    }
    // WAR: never overwrite a register an in-flight op still reads.
    if (ctx_.has_reader(op.vd)) return false;
  }
  // Conservative VLSU memory ordering: stores wait for all outstanding
  // loads; loads wait until prior stores are down to the last few W beats,
  // overlapping the next read's address phase with the store tail (ideal
  // mode has no W channel and keeps the per-op rule).
  if (is_load && ctx_.stores_pending_w > 0) {
    if (ctx_.cfg.mode == VlsuMode::ideal ||
        ctx_.store_w_beats_left > kStoreLoadRunahead) {
      return false;
    }
  }
  if (is_store && ctx_.loads_in_flight > 0) return false;

  auto ref = std::make_shared<InflightOp>();
  ref->op = op;
  ref->seq = next_seq_++;
  auto add_reader = [&](int reg) {
    if (reg >= 0) ++ctx_.readers[static_cast<unsigned>(reg)];
  };
  add_reader(op.vs1);
  add_reader(op.vs2);
  add_reader(op.vidx);
  if (op.vd >= 0) {
    // Capture the previous producer before taking over: accumulating ops
    // chain on it (see InflightOp::vd_dep).
    ref->vd_dep = ctx_.producer_of[static_cast<unsigned>(op.vd)];
    ctx_.producer_of[static_cast<unsigned>(op.vd)] = ref;
  }
  if (is_load) {
    ++ctx_.loads_in_flight;
    load_unit_.accept(ref, now());
  } else if (is_store) {
    ctx_.stores_in_flight.push_back(ref->seq);
    ++ctx_.stores_pending_w;
    store_unit_.accept(ref, now());
  } else {
    vfu_.accept(ref);
  }
  ctx_.counters.add("proc.dispatches");
  dispatch_until_ = now() + kDispatchCycles + 1;
  return true;
}

void Processor::tick() {
  ctx_.ideal_budget = ctx_.cfg.lanes;
  load_unit_.tick(now());
  store_unit_.tick(now());
  vfu_.tick();

  // Sequencer: at most one instruction leaves the scalar core per cycle.
  if (now() < scalar_until_ || now() < dispatch_until_) return;
  if (program_ == nullptr || pc_ >= program_->ops.size()) return;
  const VecOp& op = program_->ops[pc_];
  if (op.kind == OpKind::scalar) {
    // The core is busy for the op's cycles after this one.
    scalar_until_ = now() + op.cycles + 1;
    if (op.cycles > 0) ctx_.counters.add("proc.scalar_cycles", op.cycles);
    ++pc_;
    return;
  }
  if (op.kind == OpKind::fence) {
    if (load_unit_.idle() && store_unit_.idle() && vfu_.idle()) ++pc_;
    return;
  }
  if (try_issue(op)) ++pc_;
}

}  // namespace axipack::vproc
