#include "ot/ot_workspace.h"

#include <algorithm>

namespace ironman::ot {

namespace {

/** The fields extension sizing depends on. */
bool
sameShape(const FerretParams &a, const FerretParams &b)
{
    return a.n == b.n && a.k == b.k && a.t == b.t &&
           a.arity == b.arity && a.prg == b.prg &&
           a.lpnWeight == b.lpnWeight && a.lpnSeed == b.lpnSeed;
}

} // namespace

SpcotConfig
spcotConfigOf(const FerretParams &p)
{
    SpcotConfig cfg;
    cfg.numLeaves = p.bucketSize();
    cfg.arity = p.arity;
    cfg.prg = p.prg;
    return cfg;
}

void
OtWorkspace::prepare(const FerretParams &p, int threads)
{
    threads = std::max(threads, 1);
    if (ready && sameShape(preparedFor, p) && preparedThreads == threads)
        return;

    pool.resize(threads);
    SpcotShape shape;
    shape.prepare(spcotConfigOf(p));
    leaf.resize(p.t * shape.leaves);

    // The SPCOT workspace sizes itself per role on the first
    // spcotSend*/spcotRecv* call (still warm-up, and it avoids
    // allocating the other role's buffer set).
    lpn.resize(threads);
    alphas.resize(p.t);

    ready = true;
    preparedFor = p;
    preparedThreads = threads;
}

} // namespace ironman::ot
