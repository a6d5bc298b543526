#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/env.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cta::serve {

using core::Index;

const char *
toString(SubmitResult result)
{
    switch (result) {
    case SubmitResult::Accepted:
        return "Accepted";
    case SubmitResult::QueueFull:
        return "QueueFull";
    case SubmitResult::SessionRemoved:
        return "SessionRemoved";
    case SubmitResult::Corrupted:
        return "Corrupted";
    case SubmitResult::DeadlineExpired:
        return "DeadlineExpired";
    case SubmitResult::QuotaExceeded:
        return "QuotaExceeded";
    case SubmitResult::ShardFenced:
        return "ShardFenced";
    }
    return "?";
}

namespace {

std::size_t
computeModelBytes(const nn::AttentionHeadParams &params,
                  const alg::LshParamSet &lsh)
{
    std::size_t bytes = 0;
    for (const nn::Linear *linear :
         {&params.wq, &params.wk, &params.wv}) {
        bytes += linear->weight().memoryBytes();
        if (linear->bias())
            bytes += linear->bias()->memoryBytes();
    }
    bytes += lsh.lsh0.a.memoryBytes() + lsh.lsh0.b.memoryBytes() +
             lsh.lsh1.a.memoryBytes() + lsh.lsh1.b.memoryBytes() +
             lsh.lsh2.a.memoryBytes() + lsh.lsh2.b.memoryBytes();
    return bytes;
}

} // namespace

SessionManager::SessionManager(nn::AttentionHeadParams params,
                               ServeConfig config, Index token_dim,
                               std::size_t mem_budget_bytes,
                               std::size_t page_bytes)
    : params_(std::make_shared<const nn::AttentionHeadParams>(
          std::move(params))),
      config_(config),
      lsh_(std::make_shared<const alg::LshParamSet>(
          alg::sampleLshParams(config.cta, token_dim))),
      arena_(std::make_shared<core::PageArena>(
          page_bytes != 0 ? page_bytes
                          : core::PageArena::pageBytesFromEnv())),
      tokenDim_(token_dim),
      memBudgetBytes_(mem_budget_bytes),
      modelBytes_(computeModelBytes(*params_, *lsh_)),
      queueCapacity_(queueCapacityFromEnv())
{
    CTA_REQUIRE(params_->wq.inDim() == token_dim &&
                params_->wk.inDim() == token_dim &&
                params_->wv.inDim() == token_dim,
                "head projections expect token dim ",
                params_->wq.inDim(), ", manager serves ", token_dim);
}

std::size_t
SessionManager::memBudgetFromEnv()
{
    const auto parsed = core::envBytes("CTA_MEM_BUDGET");
    return parsed ? *parsed : 0; // unset -> unlimited
}

Index
SessionManager::queueCapacityFromEnv()
{
    const auto parsed = core::envInt("CTA_QUEUE_CAP");
    if (!parsed)
        return kDefaultQueueCapacity;
    CTA_REQUIRE(*parsed > 0,
                "CTA_QUEUE_CAP must be a positive queue bound, got ",
                *parsed);
    return static_cast<Index>(*parsed);
}

std::unique_ptr<DecodeSession>
SessionManager::makeSession() const
{
    return std::make_unique<DecodeSession>(params_, config_,
                                           tokenDim_, lsh_, arena_);
}

Index
SessionManager::pushSlotLocked(Slot slot)
{
    slots_.emplace(nextId_, std::move(slot));
    return nextId_++;
}

Index
SessionManager::createSession()
{
    Slot slot;
    slot.live = makeSession();
    std::lock_guard<std::mutex> lock(mutex_);
    slot.lastUsed = ++tick_;
    CTA_OBS_COUNT("serve.manager.created", 1);
    return pushSlotLocked(std::move(slot));
}

Index
SessionManager::createSession(const core::Matrix &tokens)
{
    // The prefill touches only the new session (and the thread-safe
    // arena), so it runs outside the lock; only the insert and its
    // tick are serialized.
    Slot slot;
    slot.live = makeSession();
    slot.live->prefill(tokens);
    std::lock_guard<std::mutex> lock(mutex_);
    slot.lastUsed = ++tick_;
    CTA_OBS_COUNT("serve.manager.created", 1);
    return pushSlotLocked(std::move(slot));
}

Index
SessionManager::forkSession(Index parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DecodeSession &donor_source = acquireLocked(parent);
    CTA_REQUIRE(!donor_source.fallbackActive(), "session ", parent,
                " fell back to exact attention; it cannot donate a "
                "shared prefix");
    const auto next = static_cast<std::int64_t>(prefixes_.size());
    std::shared_ptr<const SharedPrefix> prefix =
        donor_source.sharedPrefix(next);
    if (prefix->id() == next) {
        // Freshly frozen donor: register it.
        PrefixEntry entry;
        entry.live = prefix;
        entry.tokens = prefix->tokens();
        entry.lastUsed = ++tick_;
        prefixes_.push_back(std::move(entry));
        CTA_OBS_COUNT("serve.manager.prefixes", 1);
    } else {
        // The parent has not mutated since its last fork; reuse the
        // cached donor (and its registry entry).
        PrefixEntry &entry =
            prefixes_[static_cast<std::size_t>(prefix->id())];
        CTA_ASSERT(entry.live.get() == prefix.get(),
                   "cached shared prefix ", prefix->id(),
                   " diverged from its registry entry");
        entry.lastUsed = ++tick_;
    }

    Slot slot;
    slot.live = DecodeSession::forkFrom(prefix);
    slot.prefixId = prefix->id();
    slot.lastUsed = ++tick_;
    ++forks_;
    CTA_OBS_COUNT("serve.manager.forks", 1);
    return pushSlotLocked(std::move(slot));
}

Index
SessionManager::sessionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_;
}

SessionManager::Slot &
SessionManager::slot(Index id, const char *verb)
{
    CTA_REQUIRE(id >= 0 && id < nextId_, "session id ", id,
                " out of range [0, ", nextId_, ") in ", verb);
    const auto it = slots_.find(id);
    CTA_REQUIRE(it != slots_.end(), "session ", id,
                " was removed; cannot ", verb, " it");
    return it->second;
}

const SessionManager::Slot &
SessionManager::slot(Index id, const char *verb) const
{
    return const_cast<SessionManager *>(this)->slot(id, verb);
}

SessionManager::State
SessionManager::stateLocked(Index id) const
{
    const auto it = slots_.find(id);
    return it == slots_.end() ? State::Removed : it->second.state;
}

bool
SessionManager::exists(Index id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stateLocked(id) != State::Removed;
}

bool
SessionManager::isLive(Index id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stateLocked(id) == State::Live;
}

bool
SessionManager::isEvicted(Index id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stateLocked(id) == State::Evicted;
}

bool
SessionManager::isQuarantined(Index id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stateLocked(id) == State::Quarantined;
}

bool
SessionManager::isFaultTainted(Index id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Slot &s = slot(id, "query taint of");
    return s.taint || (s.live && s.live->faultTainted());
}

std::shared_ptr<const SharedPrefix>
SessionManager::resolvePrefix(std::int64_t id)
{
    CTA_REQUIRE(id >= 0 &&
                    id < static_cast<std::int64_t>(prefixes_.size()),
                "shared prefix id ", id, " out of range [0, ",
                prefixes_.size(), ")");
    PrefixEntry &entry = prefixes_[static_cast<std::size_t>(id)];
    entry.lastUsed = ++tick_;
    if (entry.live)
        return entry.live;

    CTA_TRACE_SCOPE_ID("serve.prefix_restore", id);
    // A corrupt prefix blob is fatal, not a quarantine: a prefix
    // underpins every session forked from it, so silently dropping it
    // would cascade data loss the caller cannot reason about.
    SessionSnapshot snap;
    std::string error;
    CTA_REQUIRE(tryDeserializeSnapshot(entry.blob, &snap, &error),
                "shared prefix ", id, " snapshot blob is corrupt (",
                error, ")");
    std::unique_ptr<DecodeSession> donor_source;
    if (snap.prefixId >= 0)
        donor_source = DecodeSession::forkFrom(
            resolvePrefix(snap.prefixId));
    else
        donor_source = makeSession();
    donor_source->restore(snap);
    entry.live = donor_source->sharedPrefix(id);
    CTA_ASSERT(entry.live->tokens() == entry.tokens,
               "restored prefix ", id, " has ", entry.live->tokens(),
               " tokens, expected ", entry.tokens);
    entry.blob.clear();
    entry.blob.shrink_to_fit();
    ++prefixRestores_;
    CTA_OBS_COUNT("serve.manager.prefix_restores", 1);
    return entry.live;
}

DecodeSession &
SessionManager::acquire(Index id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return acquireLocked(id);
}

DecodeSession &
SessionManager::acquireLocked(Index id)
{
    DecodeSession *session = tryAcquireLocked(id);
    CTA_REQUIRE(session != nullptr, "session ", id,
                " is quarantined (corrupt snapshot); cannot acquire "
                "it (use tryAcquire to degrade gracefully)");
    return *session;
}

DecodeSession *
SessionManager::tryAcquire(Index id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tryAcquireLocked(id);
}

DecodeSession *
SessionManager::tryAcquireLocked(Index id)
{
    Slot &s = slot(id, "acquire");
    if (s.state == State::Quarantined)
        return nullptr;
    if (s.state == State::Evicted) {
        CTA_TRACE_SCOPE_ID("serve.session_restore", id);
        // A blob can pass its CRC and still not fit the state it must
        // apply to (a forged checksum): the prefix reference and the
        // delta are checked against that state before anything
        // mutates, so either failure is a quarantine, not an abort.
        SessionSnapshot snap;
        std::string error;
        std::unique_ptr<DecodeSession> restored;
        if (tryDeserializeSnapshot(s.blob, &snap, &error)) {
            if (snap.prefixId != s.prefixId) {
                error = core::detail::concat(
                    "snapshot references prefix ", snap.prefixId,
                    " but the slot recorded prefix ", s.prefixId);
            } else {
                restored = snap.prefixId >= 0
                               ? DecodeSession::forkFrom(
                                     resolvePrefix(snap.prefixId))
                               : makeSession();
                if (!restored->tryRestore(snap, &error))
                    restored.reset();
            }
        }
        if (!restored) {
            // Integrity failure: quarantine just this session. Its
            // state is unrecoverable, but nothing it shared with the
            // rest of the server (weights, config, prefixes) is
            // touched.
            if (s.corruptionInjected)
                ++corruptionsDetected_;
            CTA_WARN("session ", id, " snapshot failed integrity "
                     "check (", error, "); quarantining it");
            dropBlobLocked(s);
            s.live.reset();
            s.state = State::Quarantined;
            CTA_OBS_COUNT("serve.manager.quarantined", 1);
            return nullptr;
        }
        if (s.corruptionInjected) {
            // An injected corruption decoded cleanly — the integrity
            // layer missed it. The fault soak fails on this counter.
            ++corruptionsSilent_;
            s.corruptionInjected = false;
        }
        s.live = std::move(restored);
        dropBlobLocked(s);
        s.state = State::Live;
        ++restores_;
        CTA_OBS_COUNT("serve.manager.restores", 1);
    }
    s.lastUsed = ++tick_;
    return s.live.get();
}

void
SessionManager::touch(Index id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    slot(id, "touch").lastUsed = ++tick_;
}

void
SessionManager::evict(Index id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    evictLocked(id);
}

void
SessionManager::evictLocked(Index id)
{
    Slot &s = slot(id, "evict");
    if (s.state == State::Evicted || s.state == State::Quarantined)
        return;
    // Quality-guard fallback sessions are pinned resident: their
    // exact K/V caches are not part of the snapshot, so an
    // evict/restore round trip would not be bit-identical.
    if (s.live->fallbackActive())
        return;
    CTA_TRACE_SCOPE_ID("serve.session_evict", id);
    s.taint = s.taint || s.live->faultTainted();
    s.blob = serializeSnapshot(s.live->snapshot());
    s.live.reset();
    s.state = State::Evicted;
    ++evictions_;
    // Snapshot-blob fault site, keyed on the eviction ordinal (a
    // manager evicts serially — the front-end runs each shard's
    // budget pass as one task — so the ordinal, and with it the
    // whole fault set, is thread-count-invariant).
    if (fault::corruptBlob(fault::Site::SnapshotBlob, evictions_,
                           s.blob)) {
        s.corruptionInjected = true;
        ++corruptionsInjected_;
    }
    evictedBlobBytes_ += s.blob.capacity();
    CTA_OBS_COUNT("serve.manager.evictions", 1);
}

RemovedSession
SessionManager::removeSession(Index id)
{
    // Slot and queue change under one lock, so a concurrent trySubmit
    // either enqueues before the purge or sees the session removed.
    std::lock_guard<std::mutex> lock(mutex_);
    Slot &s = slot(id, "remove");
    evictedBlobBytes_ -= s.blob.capacity();
    RemovedSession freed{std::move(s.live), std::move(s.blob)};
    slots_.erase(id);
    CTA_OBS_COUNT("serve.manager.removed", 1);
    // Drop queued steps for the freed session; re-number the
    // submission slots so flush results stay dense.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].session == id)
            continue;
        if (kept != i)
            pending_[kept] = std::move(pending_[i]);
        pending_[kept].slot = kept;
        ++kept;
    }
    pending_.resize(kept);
    return freed;
}

bool
SessionManager::isPinnedResident(Index id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stateLocked(id) == State::Live &&
           slots_.at(id).live->fallbackActive();
}

SessionExport
SessionManager::exportSession(Index id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slot &s = slot(id, "export");
    CTA_REQUIRE(s.state != State::Quarantined, "session ", id,
                " is quarantined; it has no state to export — drop "
                "it instead of migrating it");
    SessionExport exported;
    exported.prefixId = s.prefixId;
    exported.taint = s.taint;
    if (s.state == State::Live) {
        CTA_REQUIRE(!s.live->fallbackActive(), "session ", id,
                    " fell back to exact attention; its K/V caches "
                    "are not serializable, so it cannot migrate");
        exported.taint = exported.taint || s.live->faultTainted();
        exported.blob = serializeSnapshot(s.live->snapshot());
    } else {
        exported.blob = s.blob;
    }
    exported.corruptionInjected = s.corruptionInjected;
    return exported;
}

bool
SessionManager::adoptable(const SessionSnapshot &snap,
                          std::int64_t source_prefix_id,
                          std::int64_t new_prefix_id,
                          std::string *error) const
{
    if (snap.prefixId != source_prefix_id) {
        *error = core::detail::concat(
            "snapshot references prefix ", snap.prefixId,
            " but the source slot recorded prefix ", source_prefix_id);
        return false;
    }
    // A standalone snapshot is checked whole (its base is empty). A
    // forked one is checked against the registry's fork point here
    // and against the donor itself when tryAcquire() restores it —
    // resolving the donor now would restore an evicted prefix early.
    if (new_prefix_id < 0)
        return makeSession()->canRestore(snap, error);
    CTA_REQUIRE(new_prefix_id <
                    static_cast<std::int64_t>(prefixes_.size()),
                "adopted session prefix ", new_prefix_id,
                " is not registered here (", prefixes_.size(),
                " prefixes)");
    const Index tokens =
        prefixes_[static_cast<std::size_t>(new_prefix_id)].tokens;
    if (snap.prefixTokens != tokens) {
        *error = core::detail::concat(
            "snapshot fork point ", snap.prefixTokens,
            " does not match prefix ", new_prefix_id, "'s ", tokens,
            " tokens");
        return false;
    }
    return true;
}

Index
SessionManager::adoptSession(SessionExport exported,
                             std::int64_t new_prefix_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slot adopted;
    adopted.taint = exported.taint;
    adopted.prefixId = new_prefix_id;
    adopted.lastUsed = ++tick_;

    CTA_REQUIRE((exported.prefixId >= 0) == (new_prefix_id >= 0),
                "adopted session had prefix ", exported.prefixId,
                " but the importer remapped it to ", new_prefix_id);
    SessionSnapshot snap;
    std::string error;
    if (!tryDeserializeSnapshot(exported.blob, &snap, &error) ||
        !adoptable(snap, exported.prefixId, new_prefix_id, &error)) {
        // The migrated blob arrives corrupt: quarantine the new id
        // immediately — same verdict tryAcquire() would reach one
        // restore later, reached one restore earlier.
        if (exported.corruptionInjected)
            ++corruptionsDetected_;
        CTA_WARN("adopted session snapshot failed integrity check (",
                 error, "); quarantining it on arrival");
        adopted.state = State::Quarantined;
        CTA_OBS_COUNT("serve.manager.quarantined", 1);
        return pushSlotLocked(std::move(adopted));
    }
    // An injection that got this far is judged where the blob is
    // restored: tryAcquire() counts it detected or silent.
    adopted.corruptionInjected = exported.corruptionInjected;
    if (snap.prefixId != new_prefix_id) {
        snap.prefixId = new_prefix_id;
        adopted.blob = serializeSnapshot(snap);
    } else {
        adopted.blob = std::move(exported.blob);
    }
    adopted.state = State::Evicted;
    evictedBlobBytes_ += adopted.blob.capacity();
    CTA_OBS_COUNT("serve.manager.adopted", 1);
    return pushSlotLocked(std::move(adopted));
}

PrefixExport
SessionManager::exportPrefix(std::int64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(id >= 0 &&
                    id < static_cast<std::int64_t>(prefixes_.size()),
                "shared prefix id ", id, " out of range [0, ",
                prefixes_.size(), ")");
    PrefixEntry &entry = prefixes_[static_cast<std::size_t>(id)];
    PrefixExport exported;
    exported.tokens = entry.tokens;
    if (entry.live) {
        exported.blob =
            serializeSnapshot(entry.live->donor().snapshot());
        exported.parentId = entry.live->donorIsFork()
                                ? entry.live->donor().prefix()->id()
                                : -1;
    } else {
        exported.blob = entry.blob;
        // The parent reference lives inside the snapshot; an evicted
        // donor blob is valid by invariant (a corrupt one is fatal at
        // resolvePrefix), so decoding here cannot fail silently.
        SessionSnapshot snap;
        std::string error;
        CTA_REQUIRE(
            tryDeserializeSnapshot(exported.blob, &snap, &error),
            "shared prefix ", id, " blob is corrupt (", error, ")");
        exported.parentId = snap.prefixId;
    }
    return exported;
}

std::int64_t
SessionManager::adoptPrefix(PrefixExport exported,
                            std::int64_t new_parent_id)
{
    // Same policy as resolvePrefix(): a prefix blob that does not
    // decode is fatal, and its parent reference must land inside this
    // manager's registry (the importer migrates chains root-first).
    std::lock_guard<std::mutex> lock(mutex_);
    SessionSnapshot snap;
    std::string error;
    CTA_REQUIRE(tryDeserializeSnapshot(exported.blob, &snap, &error),
                "adopted shared prefix blob is corrupt (", error, ")");
    CTA_REQUIRE((snap.prefixId >= 0) == (new_parent_id >= 0),
                "adopted prefix blob references parent ",
                snap.prefixId, " but the importer remapped it to ",
                new_parent_id);
    CTA_REQUIRE(new_parent_id <
                    static_cast<std::int64_t>(prefixes_.size()),
                "adopted prefix parent ", new_parent_id,
                " is not registered here (", prefixes_.size(),
                " prefixes) — migrate the chain root-first");
    PrefixEntry entry;
    if (snap.prefixId != new_parent_id) {
        snap.prefixId = new_parent_id;
        entry.blob = serializeSnapshot(snap);
    } else {
        entry.blob = std::move(exported.blob);
    }
    entry.tokens = exported.tokens;
    entry.lastUsed = ++tick_;
    prefixes_.push_back(std::move(entry));
    CTA_OBS_COUNT("serve.manager.prefixes", 1);
    return static_cast<std::int64_t>(prefixes_.size()) - 1;
}

bool
SessionManager::poisonSession(Index id, std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slot &s = slot(id, "poison");
    if (s.state == State::Quarantined)
        return false;
    if (s.state == State::Live && s.live->fallbackActive())
        return false;
    if (s.state == State::Live)
        evictLocked(id);
    if (s.corruptionInjected)
        return true; // already corrupt; a second flip could cancel it
    CTA_ASSERT(!s.blob.empty(), "evicted session ", id,
               " has an empty snapshot blob");
    s.blob[static_cast<std::size_t>(key % s.blob.size())] ^= 0xA5;
    s.corruptionInjected = true;
    ++corruptionsInjected_;
    return true;
}

void
SessionManager::dropBlobLocked(Slot &s)
{
    evictedBlobBytes_ -= s.blob.capacity();
    s.blob = std::vector<std::uint8_t>();
}

bool
SessionManager::prefixIsCold(std::int64_t id) const
{
    // A live session forked from this prefix shares its pages; a live
    // parent that still caches the donor it froze (its next fork
    // reuses it) holds the donor itself, so evicting the registry
    // entry would free nothing and orphan that cache.
    for (const auto &[sid, s] : slots_) {
        if (s.state != State::Live)
            continue;
        if (s.prefixId == id)
            return false;
        const SharedPrefix *cached = s.live->cachedPrefix();
        if (cached != nullptr && cached->id() == id)
            return false;
    }
    // A resident child prefix's donor holds this prefix alive through
    // its own prefix_ pointer; evicting the registry entry would not
    // free a byte until the child goes cold too.
    for (const PrefixEntry &entry : prefixes_) {
        if (!entry.live || !entry.live->donorIsFork())
            continue;
        if (entry.live->donor().prefix()->id() == id)
            return false;
    }
    return true;
}

bool
SessionManager::evictPrefixIfCold(std::int64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictPrefixIfColdLocked(id);
}

bool
SessionManager::evictPrefixIfColdLocked(std::int64_t id)
{
    CTA_REQUIRE(id >= 0 &&
                    id < static_cast<std::int64_t>(prefixes_.size()),
                "shared prefix id ", id, " out of range [0, ",
                prefixes_.size(), ")");
    PrefixEntry &entry = prefixes_[static_cast<std::size_t>(id)];
    if (!entry.live || !prefixIsCold(id))
        return false;
    CTA_TRACE_SCOPE_ID("serve.prefix_evict", id);
    entry.blob = serializeSnapshot(entry.live->donor().snapshot());
    entry.live.reset();
    ++prefixEvictions_;
    CTA_OBS_COUNT("serve.manager.prefix_evictions", 1);
    return true;
}

std::size_t
SessionManager::enforceBudget()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enforceBudgetLocked();
}

std::size_t
SessionManager::enforceBudgetLocked()
{
    CTA_TRACE_SCOPE("serve.budget_pass");
    std::size_t total = residentBytesLocked();
    if (memBudgetBytes_ == 0 || total <= memBudgetBytes_) {
        publishGauges(total);
        return total;
    }
    // Over budget: collect the live sessions, LRU first. Fallback
    // sessions count against the budget but are never eviction
    // candidates (their exact caches are not serializable — see
    // evict()).
    std::vector<std::pair<std::uint64_t, Index>> live;
    for (const auto &[id, s] : slots_)
        if (s.state == State::Live && !s.live->fallbackActive())
            live.emplace_back(s.lastUsed, id);
    std::sort(live.begin(), live.end());
    // Evict LRU-first, but never the most-recently-used session: a
    // budget below a single session's footprint then degrades to
    // one-resident-at-a-time serving rather than livelock. The total
    // is re-read after each eviction, which frees the session's heap
    // and its solely-owned pages.
    for (std::size_t i = 0;
         total > memBudgetBytes_ && i + 1 < live.size(); ++i) {
        evictLocked(live[i].second);
        total = residentBytesLocked();
    }
    // Still over (or the survivors alone exceed the budget): shed
    // cold prefix donors, LRU first. A donor referenced by any live
    // session is skipped — its pages could not be freed anyway.
    if (total > memBudgetBytes_ && !prefixes_.empty()) {
        std::vector<std::pair<std::uint64_t, std::int64_t>> cold;
        for (std::int64_t id = 0;
             id < static_cast<std::int64_t>(prefixes_.size()); ++id)
            if (prefixes_[static_cast<std::size_t>(id)].live)
                cold.emplace_back(
                    prefixes_[static_cast<std::size_t>(id)].lastUsed,
                    id);
        std::sort(cold.begin(), cold.end());
        for (const auto &[tick, id] : cold) {
            if (total <= memBudgetBytes_)
                break;
            if (evictPrefixIfColdLocked(id))
                total = residentBytesLocked();
        }
    }
    publishGauges(total);
    return total;
}

std::size_t
SessionManager::liveStateBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return liveStateBytesLocked();
}

std::size_t
SessionManager::liveStateBytesLocked() const
{
    std::size_t total = 0;
    for (const auto &[id, s] : slots_)
        if (s.state == State::Live)
            total += s.live->stateBytes();
    return total;
}

std::size_t
SessionManager::evictedBlobBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictedBlobBytes_;
}

std::size_t
SessionManager::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return residentBytesLocked();
}

std::size_t
SessionManager::residentBytesLocked() const
{
    return arena_->liveBytes() + arena_->heapBytes();
}

std::size_t
SessionManager::walkedResidentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = liveStateBytesLocked();
    for (const PrefixEntry &entry : prefixes_)
        if (entry.live)
            total += entry.live->donor().stateBytes() +
                     entry.live->donor().sharedTreeBytes();
    total += arena_->sharedBytes();
    return total;
}

Index
SessionManager::prefixCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<Index>(prefixes_.size());
}

bool
SessionManager::isPrefixLive(std::int64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return id >= 0 &&
           id < static_cast<std::int64_t>(prefixes_.size()) &&
           prefixes_[static_cast<std::size_t>(id)].live != nullptr;
}

SessionManagerStats
SessionManager::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SessionManagerStats stats;
    stats.created = nextId_;
    stats.removed = nextId_ - static_cast<Index>(slots_.size());
    // Like walkedResidentBytes(), this walks every session's pages
    // (liveBytes); the flush path never calls either.
    for (const auto &[id, s] : slots_) {
        switch (s.state) {
        case State::Live:
            ++stats.live;
            stats.liveBytes += s.live->stateBytes();
            break;
        case State::Evicted:
            ++stats.evicted;
            stats.evictedBytes += s.blob.capacity();
            break;
        case State::Removed: // removed ids hold no slot
            break;
        case State::Quarantined:
            ++stats.quarantined;
            break;
        }
    }
    stats.evictions = evictions_;
    stats.restores = restores_;
    stats.corruptionsInjected = corruptionsInjected_;
    stats.corruptionsDetected = corruptionsDetected_;
    stats.corruptionsSilent = corruptionsSilent_;
    stats.prefixes = static_cast<Index>(prefixes_.size());
    for (const PrefixEntry &entry : prefixes_) {
        if (entry.live) {
            ++stats.prefixesLive;
            stats.prefixBytes += entry.live->donor().stateBytes() +
                                 entry.live->donor().sharedTreeBytes();
        } else {
            stats.prefixBlobBytes += entry.blob.capacity();
        }
    }
    stats.sharedPageBytes = arena_->sharedBytes();
    stats.residentBytes = residentBytesLocked();
    CTA_OBS_GAUGE_SET("serve.manager.live_bytes",
                      static_cast<double>(stats.liveBytes));
    stats.modelBytes = modelBytes_;
    stats.forks = forks_;
    stats.cowCopies = arena_->cowCopies();
    stats.prefixEvictions = prefixEvictions_;
    stats.prefixRestores = prefixRestores_;
    stats.rejections = rejections_;
    stats.expiredSteps = expiredSteps_;
    stats.corruptedSteps = corruptedSteps_;
    stats.bouncedSteps = bouncedSteps_;
    return stats;
}

void
SessionManager::publishGauges(std::size_t resident) const
{
    CTA_OBS_GAUGE_SET("serve.manager.evicted_blob_bytes",
                      static_cast<double>(evictedBlobBytes_));
    CTA_OBS_GAUGE_SET("serve.manager.resident_bytes",
                      static_cast<double>(resident));
    CTA_OBS_GAUGE_SET("serve.manager.shared_page_bytes",
                      static_cast<double>(arena_->sharedBytes()));
}

void
SessionManager::submit(Index session, std::span<const core::Real> token)
{
    const SubmitResult result = trySubmit(session, token);
    CTA_REQUIRE(result == SubmitResult::Accepted, "submit to session ",
                session, " rejected: ", toString(result),
                " (use trySubmit to shed load)");
}

SubmitResult
SessionManager::recordRejectionLocked(SubmitResult reason)
{
    // Shed-load volume is workload/timing dependent; it stays out of
    // the deterministic counter domain and is exported as gauges —
    // one per reason, summing to rejections_.total().
    switch (reason) {
    case SubmitResult::QueueFull:
        ++rejections_.queueFull;
        CTA_OBS_GAUGE_ADD("serve.rejected.queue_full", 1.0);
        break;
    case SubmitResult::SessionRemoved:
        ++rejections_.sessionRemoved;
        CTA_OBS_GAUGE_ADD("serve.rejected.session_removed", 1.0);
        break;
    case SubmitResult::Corrupted:
        ++rejections_.corrupted;
        CTA_OBS_GAUGE_ADD("serve.rejected.corrupted", 1.0);
        break;
    case SubmitResult::DeadlineExpired:
        ++rejections_.deadlineExpired;
        CTA_OBS_GAUGE_ADD("serve.rejected.deadline_expired", 1.0);
        break;
    case SubmitResult::Accepted:
    case SubmitResult::QuotaExceeded:
    case SubmitResult::ShardFenced:
        CTA_FATAL("not a SessionManager rejection reason: ",
                  toString(reason));
    }
    return reason;
}

SubmitResult
SessionManager::trySubmit(Index session,
                          std::span<const core::Real> token,
                          std::chrono::steady_clock::time_point deadline)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    // Out-of-range is a caller bug, not load — always fatal. A
    // removed session is a normal race with lifecycle management and
    // gets a recoverable rejection.
    CTA_REQUIRE(session >= 0 && session < nextId_, "session id ",
                session, " out of range [0, ", nextId_, ")");
    const State state = stateLocked(session);
    if (state == State::Removed)
        return recordRejectionLocked(SubmitResult::SessionRemoved);
    if (state == State::Quarantined)
        return recordRejectionLocked(SubmitResult::Corrupted);
    // Dead on arrival: a deadline that already passed can only come
    // back Expired from the flush, so admitting it would burn a
    // bounded-queue slot on work that can never run. Rejecting here
    // lets load-shedding react a whole flush earlier.
    if (deadline != kNoDeadline && now >= deadline)
        return recordRejectionLocked(SubmitResult::DeadlineExpired);
    if (static_cast<Index>(pending_.size()) >= queueCapacity_)
        return recordRejectionLocked(SubmitResult::QueueFull);
    Pending pending;
    pending.session = session;
    pending.token.assign(token.begin(), token.end());
    pending.submitted = now;
    pending.deadline = deadline;
    pending.slot = pending_.size();
    pending_.push_back(std::move(pending));
    CTA_OBS_COUNT("serve.submitted", 1);
    return SubmitResult::Accepted;
}

Index
SessionManager::pendingCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<Index>(pending_.size());
}

SessionManager::FlushPlan
SessionManager::beginFlush()
{
    FlushPlan plan;
    std::lock_guard<std::mutex> lock(mutex_);
    plan.batch.swap(pending_);
    plan.results.resize(plan.batch.size());
    if (plan.batch.empty())
        return plan;

    // Group by session, preserving submission order within each: a
    // session is sequential state, so its queued steps form one
    // serial task; distinct sessions fan out over the pool, as tasks
    // in ascending session id. O(batch), whatever the ids span.
    for (const Pending &p : plan.batch)
        plan.active.push_back(p.session);
    std::sort(plan.active.begin(), plan.active.end());
    plan.active.erase(std::unique(plan.active.begin(), plan.active.end()),
                      plan.active.end());
    plan.perTask.resize(plan.active.size());
    for (std::size_t i = 0; i < plan.batch.size(); ++i)
        plan.perTask[static_cast<std::size_t>(
                         std::lower_bound(plan.active.begin(),
                                          plan.active.end(),
                                          plan.batch[i].session) -
                         plan.active.begin())]
            .push_back(i);
    for (const Index sid : plan.active)
        plan.restoring = plan.restoring ||
                         slots_.at(sid).state == State::Evicted;
    return plan;
}

void
SessionManager::resolveFlush(FlushPlan &plan)
{
    // Resolve every session serially before fanning out: this is
    // where evicted sessions restore, and keeping the restores (and
    // the LRU ticks they take) in one ordered loop per manager keeps
    // eviction decisions thread-count-invariant. A session whose
    // snapshot fails integrity checks resolves to nullptr
    // (quarantined) and its steps come back Corrupted.
    if (plan.active.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    plan.resolved.resize(plan.active.size());
    for (std::size_t t = 0; t < plan.active.size(); ++t)
        plan.resolved[t] = tryAcquireLocked(plan.active[t]);
}

void
SessionManager::runPlanTask(FlushPlan &plan, Index t)
{
    const Index sid = plan.active[static_cast<std::size_t>(t)];
    CTA_TRACE_SCOPE_ID("serve.session_flush", sid);
    DecodeSession *sess = plan.resolved[static_cast<std::size_t>(t)];
    if (sess == nullptr) {
        for (const std::size_t i :
             plan.perTask[static_cast<std::size_t>(t)]) {
            const Pending &p = plan.batch[i];
            plan.results[p.slot].session = p.session;
            plan.results[p.slot].status = StepStatus::Corrupted;
        }
        return;
    }
    // Once one step misses its deadline, every later step of the
    // same session expires with it: running them anyway would
    // append tokens after a hole and break the stream-prefix
    // invariant.
    bool cascaded = false;
    std::uint64_t ran = 0;
    for (const std::size_t i : plan.perTask[static_cast<std::size_t>(t)]) {
        const Pending &p = plan.batch[i];
        const auto begin = std::chrono::steady_clock::now();
        // Queue wait: submit() to the moment the step would start.
        // Recorded for *every* step — expired ones included, since
        // the longest waits are exactly the ones that cause the
        // expiry and hiding them would blind the overload gauges.
        // Timing-domain, so gauges only (counters stay deterministic
        // across thread counts).
        const double wait =
            std::chrono::duration<double>(begin - p.submitted)
                .count();
        CTA_OBS_GAUGE_MAX("serve.queue_wait_max_s", wait);
        CTA_OBS_GAUGE_ADD("serve.queue_wait_total_s", wait);
        // Queue-delay fault site: a content-keyed draw treats
        // this step as having overstayed its deadline, exercising
        // the expiry cascade without wall-clock flakiness.
        const bool forcedExpiry =
            !cascaded &&
            fault::inject(
                fault::Site::QueueDelay,
                fault::hashBytes(p.token.data(),
                                 p.token.size() *
                                     sizeof(core::Real)) ^
                    static_cast<std::uint64_t>(p.session));
        if (cascaded || forcedExpiry ||
            (p.deadline != kNoDeadline && begin >= p.deadline)) {
            cascaded = true;
            plan.results[p.slot].session = p.session;
            plan.results[p.slot].status = StepStatus::Expired;
            continue;
        }
        core::Matrix out = sess->step(p.token);
        plan.results[p.slot] =
            StepResult{p.session, StepStatus::Ok, std::move(out)};
        ++ran;
    }
    CTA_OBS_COUNT("serve.flushed", ran);
}

SessionManager::FlushResult
SessionManager::finishFlush(FlushPlan &&plan)
{
    std::uint64_t expiredTotal = 0;
    std::uint64_t corruptedTotal = 0;
    for (const StepResult &r : plan.results) {
        expiredTotal += r.status == StepStatus::Expired ? 1 : 0;
        corruptedTotal += r.status == StepStatus::Corrupted ? 1 : 0;
    }
    if (expiredTotal > 0)
        CTA_OBS_GAUGE_ADD("serve.expired_steps",
                          static_cast<double>(expiredTotal));
    if (corruptedTotal > 0)
        CTA_OBS_GAUGE_ADD("serve.corrupted_steps",
                          static_cast<double>(corruptedTotal));

    // Recency follows submission order — deterministic for any
    // thread count — then the budget pass may evict stragglers.
    std::lock_guard<std::mutex> lock(mutex_);
    expiredSteps_ += expiredTotal;
    corruptedSteps_ += corruptedTotal;
    for (const Pending &p : plan.batch)
        slot(p.session, "touch").lastUsed = ++tick_;
    const std::size_t resident = enforceBudgetLocked();
    return {std::move(plan.results), resident};
}

SessionManager::FlushResult
SessionManager::bounceFlush(FlushPlan &&plan)
{
    // The wedged-shard exit: every drained step is returned Bounced
    // and NOTHING else happens — no step runs, no recency is marked,
    // no budget pass evicts. The sessions are bitwise exactly where
    // they were before dispatch (resolveFlush() may have restored
    // evicted sessions, which is read-repair, not mutation), so the
    // caller may safely resubmit every bounced token.
    for (const Pending &p : plan.batch) {
        plan.results[p.slot].session = p.session;
        plan.results[p.slot].status = StepStatus::Bounced;
    }
    if (!plan.batch.empty())
        CTA_OBS_GAUGE_ADD("serve.bounced_steps",
                          static_cast<double>(plan.batch.size()));
    std::lock_guard<std::mutex> lock(mutex_);
    bouncedSteps_ += static_cast<std::uint64_t>(plan.batch.size());
    return {std::move(plan.results), residentBytesLocked()};
}

std::vector<StepResult>
SessionManager::flush(core::ThreadPool &pool)
{
    CTA_TRACE_SCOPE("serve.flush");
    FlushPlan plan = beginFlush();
    resolveFlush(plan);
    if (!plan.empty())
        pool.run(plan.taskCount(),
                 [&](Index t) { runPlanTask(plan, t); });
    return finishFlush(std::move(plan)).results;
}

} // namespace cta::serve
