// R12 fixture: members missing from a snapshot field list.

struct Counters
{
    template <class Ar>
    Status
    fields(Ar &ar)
    {
        ar(hits_, misses_);
        ar.derived(peak_depth_); // high-water mark, rebuilt on use
        return ar.status();
    }

    unsigned long hits_ = 0;
    unsigned long misses_ = 0;
    unsigned long evictions_ = 0; // FLAG: neither saved nor derived
    unsigned long peak_depth_ = 0;
};

struct Meter
{
    template <class Ar>
    Status fields(Ar &ar);

    long ticks_ = 0;
    long skew_ = 0; // FLAG: the out-of-line list below omits it
};

template <class Ar>
Status
Meter::fields(Ar &ar)
{
    ar(ticks_);
    return ar.status();
}
