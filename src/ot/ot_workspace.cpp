#include "ot/ot_workspace.h"

#include <algorithm>

namespace ironman::ot {

SpcotConfig
spcotConfigOf(const FerretParams &p)
{
    SpcotConfig cfg;
    cfg.numLeaves = p.bucketSize();
    cfg.arity = p.arity;
    cfg.prg = p.prg;
    return cfg;
}

LpnParams
lpnParamsOf(const FerretParams &p)
{
    return {p.n, p.k, p.lpnWeight, p.lpnSeed};
}

void
OtWorkspace::prepare(const FerretParams &p, int threads)
{
    threads = std::max(threads, 1);
    if (ready && preparedFor == p.shape() && preparedThreads == threads)
        return;

    pool.resize(threads);
    SpcotShape shape;
    shape.prepare(spcotConfigOf(p));
    leaf.resize(p.t * shape.leaves);

    // The SPCOT workspace sizes itself per role on the first
    // spcotSend*/spcotRecv* call (still warm-up, and it avoids
    // allocating the other role's buffer set).
    alphas.resize(p.t);
    tape = sharedLpnTape(LpnEncoder(lpnParamsOf(p)), pool);

    ready = true;
    preparedFor = p.shape();
    preparedThreads = threads;
}

} // namespace ironman::ot
