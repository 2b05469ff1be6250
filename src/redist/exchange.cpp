// Per-record execution of a RedistPlan: counting-sort placement into one
// preallocated receive buffer, with the data exchange split into rounds of
// at most `chunkBytes` per peer.
//
// The exchange runs in two stages. Stage one swaps per-peer element-size
// lists (8 bytes per moved element) so every receiver can lay out its
// final buffer — sizes, offsets, and total — before any element data
// moves. Stage two streams the payload: each round packs up to chunkBytes
// per peer from the sender-side element streams and scatters the arriving
// bytes directly to their final offsets, so peak memory is bounded by
// O(nprocs * chunkBytes) regardless of record size. Elements split across
// round boundaries at byte granularity; the per-peer pack/consume cursors
// in ExchangeScratch carry the position across rounds.
//
// All counts are plan-derived on both sides from the same header bytes,
// so disagreement between what a peer sends and what the plan expects is
// an internal invariant violation (PCXX_CHECK), not a file-format error:
// format problems are fully diagnosed at plan-build time.
#include "redist/redist.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace pcxx::redist {

void execute(rt::Node& node, const RedistPlan& plan, const ByteBuffer& chunk,
             const std::vector<std::uint64_t>& chunkSizes,
             std::uint64_t chunkBytes, ByteBuffer& buffer,
             std::vector<std::uint64_t>& elemOffsets,
             std::vector<std::uint64_t>& elemSizes, ExchangeScratch& scratch,
             std::uint64_t flowId) {
  // Step the record's flow chain at each wire touch (size swap + every
  // payload round) so the trace links the record to its exchanges.
  const auto flowStep = [&node, flowId] {
    obs::NodeObs* o = node.obs();
    if (flowId != 0 && o != nullptr && o->trace != nullptr) {
      o->trace->flowStep(o->nodeId, "ds.record", o->now(), flowId);
    }
  };
  const int nprocs = plan.nprocs;
  const int me = plan.me;
  PCXX_REQUIRE(node.nprocs() == nprocs && node.id() == me,
               "redistribution plan was built for a different machine shape");
  PCXX_CHECK(static_cast<std::int64_t>(chunkSizes.size()) == plan.chunkCount);

  const size_t local = static_cast<size_t>(plan.localCount);
  elemSizes.assign(local, 0);
  elemOffsets.assign(local, 0);

  // Byte offset of each chunk element (file order within my chunk).
  scratch.chunkOffsets.assign(chunkSizes.size(), 0);
  std::uint64_t chunkOff = 0;
  for (size_t k = 0; k < chunkSizes.size(); ++k) {
    scratch.chunkOffsets[k] = chunkOff;
    chunkOff += chunkSizes[k];
  }
  PCXX_CHECK(chunkOff == chunk.size());

  scratch.sendBufs.resize(static_cast<size_t>(nprocs));
  scratch.recvBufs.resize(static_cast<size_t>(nprocs));
  scratch.sendPeerBytes.assign(static_cast<size_t>(nprocs), 0);
  scratch.recvPeerBytes.assign(static_cast<size_t>(nprocs), 0);

  const double waitedBefore = node.clock().waitedSeconds();

  // ---- stage one: sizes -----------------------------------------------------
  // Self group: placed without touching the wire.
  for (std::int64_t i = plan.sendStarts[static_cast<size_t>(me)];
       i < plan.sendStarts[static_cast<size_t>(me) + 1]; ++i) {
    elemSizes[static_cast<size_t>(plan.sendSlot[static_cast<size_t>(i)])] =
        chunkSizes[static_cast<size_t>(plan.sendIdx[static_cast<size_t>(i)])];
  }
  std::uint64_t elementsMoved = 0;
  for (int p = 0; p < nprocs; ++p) {
    ByteBuffer& out = scratch.sendBufs[static_cast<size_t>(p)];
    out.clear();
    if (p == me) continue;
    const std::int64_t count = plan.sendCountTo(p);
    out.resize(8 * static_cast<size_t>(count));
    std::uint64_t payload = 0;
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t at = plan.sendStarts[static_cast<size_t>(p)] + i;
      const std::uint64_t sz =
          chunkSizes[static_cast<size_t>(plan.sendIdx[static_cast<size_t>(at)])];
      encodeU64(sz, out.data() + 8 * static_cast<size_t>(i));
      payload += sz;
    }
    scratch.sendPeerBytes[static_cast<size_t>(p)] = payload;
    elementsMoved += static_cast<std::uint64_t>(count);
  }
  PCXX_OBS_COUNT(node.obs(), RedistElementsMoved, elementsMoved);
  flowStep();
  node.alltoallvInto(scratch.sendBufs, scratch.recvBufs);
  for (int p = 0; p < nprocs; ++p) {
    if (p == me) continue;
    const ByteBuffer& in = scratch.recvBufs[static_cast<size_t>(p)];
    const std::int64_t count = plan.recvCountFrom(p);
    PCXX_CHECK(in.size() == 8 * static_cast<size_t>(count));
    std::uint64_t payload = 0;
    for (std::int64_t i = 0; i < count; ++i) {
      const std::uint64_t sz = decodeU64(in.data() + 8 * static_cast<size_t>(i));
      const std::int64_t slot =
          plan.recvSlot[static_cast<size_t>(plan.recvStarts[static_cast<size_t>(p)] + i)];
      elemSizes[static_cast<size_t>(slot)] = sz;
      payload += sz;
    }
    scratch.recvPeerBytes[static_cast<size_t>(p)] = payload;
  }

  // Final layout: offsets are a prefix sum over reader local order.
  std::uint64_t total = 0;
  for (size_t j = 0; j < local; ++j) {
    elemOffsets[j] = total;
    total += elemSizes[j];
  }
  buffer.resize(static_cast<size_t>(total));  // capacity is kept across records

  // ---- self data ------------------------------------------------------------
  for (std::int64_t i = plan.sendStarts[static_cast<size_t>(me)];
       i < plan.sendStarts[static_cast<size_t>(me) + 1]; ++i) {
    const std::int64_t idx = plan.sendIdx[static_cast<size_t>(i)];
    const std::int64_t slot = plan.sendSlot[static_cast<size_t>(i)];
    const std::uint64_t sz = chunkSizes[static_cast<size_t>(idx)];
    if (sz == 0) continue;
    std::memcpy(buffer.data() + elemOffsets[static_cast<size_t>(slot)],
                chunk.data() + scratch.chunkOffsets[static_cast<size_t>(idx)],
                static_cast<size_t>(sz));
  }

  // ---- stage two: chunked data rounds ---------------------------------------
  // Rounds are a global maximum so every node participates in every
  // alltoallv, including nodes with nothing left to send (they contribute
  // empty buffers). chunkBytes == 0 means one unchunked round.
  std::uint64_t myMaxPeerBytes = 0;
  for (int p = 0; p < nprocs; ++p) {
    if (p == me) continue;
    myMaxPeerBytes =
        std::max(myMaxPeerBytes, scratch.sendPeerBytes[static_cast<size_t>(p)]);
  }
  const std::uint64_t myRounds =
      chunkBytes == 0 ? (myMaxPeerBytes > 0 ? 1 : 0)
                      : (myMaxPeerBytes + chunkBytes - 1) / chunkBytes;
  const std::uint64_t rounds = static_cast<std::uint64_t>(
      node.allreduceMax(static_cast<double>(myRounds)));

  scratch.sendCursor.assign(static_cast<size_t>(nprocs), 0);
  scratch.sendInner.assign(static_cast<size_t>(nprocs), 0);
  scratch.recvCursor.assign(static_cast<size_t>(nprocs), 0);
  scratch.recvInner.assign(static_cast<size_t>(nprocs), 0);
  for (int p = 0; p < nprocs; ++p) {
    scratch.sendCursor[static_cast<size_t>(p)] =
        plan.sendStarts[static_cast<size_t>(p)];
    scratch.recvCursor[static_cast<size_t>(p)] =
        plan.recvStarts[static_cast<size_t>(p)];
  }

  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (int p = 0; p < nprocs; ++p) {
      ByteBuffer& out = scratch.sendBufs[static_cast<size_t>(p)];
      out.clear();
      if (p == me) continue;
      std::uint64_t budget =
          chunkBytes == 0 ? std::numeric_limits<std::uint64_t>::max()
                          : chunkBytes;
      std::int64_t& cur = scratch.sendCursor[static_cast<size_t>(p)];
      std::uint64_t& inner = scratch.sendInner[static_cast<size_t>(p)];
      const std::int64_t end = plan.sendStarts[static_cast<size_t>(p) + 1];
      while (cur < end) {
        const std::int64_t idx = plan.sendIdx[static_cast<size_t>(cur)];
        const std::uint64_t sz = chunkSizes[static_cast<size_t>(idx)];
        const std::uint64_t left = sz - inner;
        const std::uint64_t take = std::min(left, budget);
        if (left > 0 && take == 0) break;  // budget exhausted this round
        const Byte* src =
            chunk.data() + scratch.chunkOffsets[static_cast<size_t>(idx)] + inner;
        out.insert(out.end(), src, src + take);
        inner += take;
        budget -= take;
        if (inner == sz) {
          ++cur;
          inner = 0;
        }
      }
      const std::uint64_t sent = out.size();
      scratch.sendPeerBytes[static_cast<size_t>(p)] -= sent;
      if (sent > 0) {
        PCXX_OBS_COUNT(node.obs(), RedistBytesSent, sent);
        PCXX_OBS_COUNT(node.obs(), RedistMessagesSent, 1);
        PCXX_OBS_PEER_BYTES(node.obs(), p, sent);
        PCXX_OBS_HIST(node.obs(), RedistChunkBytes, sent);
      }
    }
    flowStep();
    node.alltoallvInto(scratch.sendBufs, scratch.recvBufs);
    for (int p = 0; p < nprocs; ++p) {
      if (p == me) continue;
      const ByteBuffer& in = scratch.recvBufs[static_cast<size_t>(p)];
      PCXX_CHECK(in.size() <= scratch.recvPeerBytes[static_cast<size_t>(p)]);
      std::int64_t& cur = scratch.recvCursor[static_cast<size_t>(p)];
      std::uint64_t& inner = scratch.recvInner[static_cast<size_t>(p)];
      const std::int64_t end = plan.recvStarts[static_cast<size_t>(p) + 1];
      size_t pos = 0;
      while (pos < in.size()) {
        PCXX_CHECK(cur < end);
        const std::int64_t slot = plan.recvSlot[static_cast<size_t>(cur)];
        const std::uint64_t sz = elemSizes[static_cast<size_t>(slot)];
        const std::uint64_t left = sz - inner;
        if (left == 0) {
          ++cur;
          inner = 0;
          continue;
        }
        const std::uint64_t take =
            std::min(left, static_cast<std::uint64_t>(in.size() - pos));
        std::memcpy(buffer.data() + elemOffsets[static_cast<size_t>(slot)] + inner,
                    in.data() + pos, static_cast<size_t>(take));
        inner += take;
        pos += take;
        if (inner == sz) {
          ++cur;
          inner = 0;
        }
      }
      scratch.recvPeerBytes[static_cast<size_t>(p)] -= in.size();
    }
  }
  for (int p = 0; p < nprocs; ++p) {
    if (p == me) continue;
    PCXX_CHECK(scratch.sendPeerBytes[static_cast<size_t>(p)] == 0 &&
                   scratch.recvPeerBytes[static_cast<size_t>(p)] == 0);
  }
  PCXX_OBS_SECONDS(node.obs(), RedistWaitSeconds,
                   node.clock().waitedSeconds() - waitedBefore);
}

}  // namespace pcxx::redist
