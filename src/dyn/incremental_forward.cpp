#include "dyn/incremental_forward.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace gcod::dyn {

IncrementalForward
IncrementalForward::fromScratch(const ForwardRecipe &m, const Matrix &x)
{
    IncrementalForward st;
    st.acts_.reserve(m.layers.size());
    st.aggIn_.reserve(m.layers.size());
    for (size_t l = 0; l < m.layers.size(); ++l) {
        const LayerGraph &g = m.layers[l];
        LayerSlots slots;
        slots.input = l == 0 ? &x : &st.acts_.back();
        executeLayer(m, nullptr, l, {RowSet()}, slots);
        const int agg = g.aggOp();
        const int aggIn = agg >= 0 ? g.ops[size_t(agg)].in : 0;
        st.aggIn_.push_back(aggIn != 0 ? std::move(slots.mats[size_t(aggIn)])
                                       : Matrix());
        st.acts_.push_back(std::move(slots.mats[size_t(g.ops.back().out)]));
    }
    st.lastDirtyRows_ = size_t(x.rows()) * m.layers.size();
    return st;
}

IncrementalForward
IncrementalForward::applied(const ForwardRecipe &m, const Matrix &x,
                            const std::vector<DirtyRegion> &levels) const
{
    const size_t num_layers = m.layers.size();
    GCOD_ASSERT(!acts_.empty(), "applied() needs a fromScratch state");
    GCOD_ASSERT(levels.size() == num_layers,
                "need one dirty level per layer");
    const int64_t n = x.rows();
    const int64_t old_n = acts_.front().rows();
    GCOD_ASSERT(n >= old_n, "node space shrank across epochs");

    IncrementalForward next;
    next.acts_.reserve(num_layers);
    next.aggIn_.reserve(num_layers);
    const Matrix *input = &x;
    for (size_t l = 0; l < num_layers; ++l) {
        const LayerGraph &g = m.layers[l];
        const std::vector<int64_t> widths =
            layerSlotWidths(m, l, input->cols());
        const int aggIdx = g.aggOp();
        GCOD_ASSERT(aggIdx >= 0,
                    "incremental recompute needs one aggregation per layer");
        const int aggIn = g.ops[size_t(aggIdx)].in;
        const int fin = g.ops.back().out;

        // Node-addressed: the aggregation input (other rows read it) and
        // the layer output, each carrying last epoch's rows — clean rows
        // travel verbatim, and new rows (>= old_n) are always dirty, so
        // their zero fill is never read. Every other intermediate is
        // staged for the dirty rows only.
        LayerSlots slots;
        slots.input = input;
        slots.mats.resize(size_t(g.numSlots));
        slots.local.assign(size_t(g.numSlots), 1);
        slots.local[0] = 0;
        auto carry = [&](int slot, const Matrix &prev) {
            GCOD_ASSERT(prev.rows() == old_n &&
                            prev.cols() == widths[size_t(slot)],
                        "incremental cache shape drifted");
            Matrix cur(n, prev.cols(), 0.0f);
            std::memcpy(cur.row(0), prev.row(0),
                        size_t(old_n * prev.cols()) * sizeof(float));
            slots.mats[size_t(slot)] = std::move(cur);
            slots.local[size_t(slot)] = 0;
        };
        if (aggIn != 0)
            carry(aggIn, aggIn_[l]);
        carry(fin, acts_[l]);

        // The aggregation-input refresh is sound: its row j is a row-local
        // function of input row j, every changed input row is inside this
        // level, and the ops before the aggregation run over the whole
        // level before it reads any neighbor row.
        executeLayer(m, nullptr, l, {RowSet(levels[l].nodes)}, slots);
        next.lastDirtyRows_ += levels[l].count();
        next.aggIn_.push_back(aggIn != 0
                                  ? std::move(slots.mats[size_t(aggIn)])
                                  : Matrix());
        next.acts_.push_back(std::move(slots.mats[size_t(fin)]));
        input = &next.acts_.back();
    }
    return next;
}

} // namespace gcod::dyn
