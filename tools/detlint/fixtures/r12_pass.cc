// R12 fixture (pass): full coverage, derived members, near-misses.

struct Gauge
{
    template <class Ar>
    Status
    fields(Ar &ar)
    {
        ar.tag(0x47415531);
        ar(total_, rate_);
        ar.derived(scratch_); // accumulator, rebuilt on the next tick
        return ar.status();
    }

    unsigned long total_ = 0;
    double rate_ = 0.0;
    double scratch_ = 0.0;
    static int instances_; // static: not per-object state
};

// Out-of-line field list plus its explicit instantiations.
struct Window
{
    template <class Ar>
    Status fields(Ar &ar);

    int lo_ = 0;
    int hi_ = 0;
};

template <class Ar>
Status
Window::fields(Ar &ar)
{
    ar.expect(lo_);
    ar.range(hi_, 0, 64);
    return ar.status();
}

template Status Window::fields(SaveArchive &);
template Status Window::fields(LoadArchive &);

// No field list: not persisted, not checked.
struct Plain
{
    unsigned long lines_ = 0;
};

// A field list declared but never defined in the scanned files
// carries no body to check.
struct Declared
{
    template <class Ar>
    Status fields(Ar &ar);

    long a_ = 0;
};
